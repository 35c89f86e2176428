package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConvertRoundTrip: JSON -> binary -> JSON, with byte-identical predict
// output from every intermediate file, for single trees and forests.
func TestConvertRoundTrip(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)
	dir := filepath.Dir(modelPath)

	cases := []struct {
		name  string
		extra []string
	}{
		{"tree", nil},
		{"forest", []string{"-forest", "-trees", "5", "-seed", "3"}},
		{"boost", []string{"-boost", "-rounds", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jsonPath := filepath.Join(dir, tc.name+".json")
			binPath := filepath.Join(dir, tc.name+".udt")
			backPath := filepath.Join(dir, tc.name+"-back.json")
			args := append([]string{"-in", trainPath, "-out", jsonPath, "-minweight", "1"}, tc.extra...)
			if _, err := capture(t, func() error { return train(args) }); err != nil {
				t.Fatalf("train: %v", err)
			}

			// JSON -> binary (-to auto picks the opposite of the source).
			out, err := capture(t, func() error {
				return convert([]string{"-in", jsonPath, "-out", binPath})
			})
			if err != nil {
				t.Fatalf("convert to binary: %v", err)
			}
			if !strings.Contains(out, "(json)") || !strings.Contains(out, "(binary)") {
				t.Fatalf("convert output: %q", out)
			}
			// Binary -> JSON, explicitly.
			if _, err := capture(t, func() error {
				return convert([]string{"-in", binPath, "-out", backPath, "-to", "json"})
			}); err != nil {
				t.Fatalf("convert back to JSON: %v", err)
			}

			want, err := capture(t, func() error {
				return predict([]string{"-model", jsonPath, "-in", testPath, "-format", "ndjson"})
			})
			if err != nil {
				t.Fatalf("predict source: %v", err)
			}
			for _, path := range []string{binPath, backPath} {
				got, err := capture(t, func() error {
					return predict([]string{"-model", path, "-in", testPath, "-format", "ndjson"})
				})
				if err != nil {
					t.Fatalf("predict %s: %v", path, err)
				}
				if got != want {
					t.Fatalf("predictions from %s diverge:\n%s\nwant:\n%s", path, got, want)
				}
			}
		})
	}
}

// TestRulesFromBinaryModel: rule extraction decompiles a binary single-tree
// model and prints the same rules as the JSON source.
func TestRulesFromBinaryModel(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	binPath := filepath.Join(filepath.Dir(modelPath), "model.udt")
	if _, err := capture(t, func() error {
		return convert([]string{"-in", modelPath, "-out", binPath, "-to", "binary"})
	}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	want, err := capture(t, func() error { return rules([]string{"-model", modelPath}) })
	if err != nil {
		t.Fatalf("rules on JSON: %v", err)
	}
	got, err := capture(t, func() error { return rules([]string{"-model", binPath}) })
	if err != nil {
		t.Fatalf("rules on binary: %v", err)
	}
	if got != want || !strings.Contains(got, "IF ") {
		t.Fatalf("binary rules:\n%s\nwant:\n%s", got, want)
	}
}

// TestConvertErrors: bad flags and sources fail cleanly.
func TestConvertErrors(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"missing -in":    {"-out", filepath.Join(dir, "x")},
		"missing -out":   {"-in", junk},
		"unknown target": {"-in", junk, "-out", filepath.Join(dir, "x"), "-to", "xml"},
		"junk source":    {"-in", junk, "-out", filepath.Join(dir, "x")},
	} {
		if _, err := capture(t, func() error { return convert(args) }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPredictNDJSONGoldenBinary pins predict -format ndjson from a converted
// binary model to the shared golden stream: the CLI answers the exact same
// bytes whether it loads the JSON fixture or its binary container. It also
// pins the tree's encodings by digest — the binary container, that container
// converted back to JSON, and the extracted rules from either file — so any
// change to how a single tree is stored or decompiled shows up here.
func TestPredictNDJSONGoldenBinary(t *testing.T) {
	fixtures := "../../testdata/stream"
	dir := t.TempDir()
	binPath := filepath.Join(dir, "model.udt")
	if _, err := capture(t, func() error {
		return convert([]string{"-in", fixtures + "/model.json", "-out", binPath, "-to", "binary"})
	}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	backPath := filepath.Join(dir, "back.json")
	if _, err := capture(t, func() error {
		return convert([]string{"-in", binPath, "-out", backPath, "-to", "json"})
	}); err != nil {
		t.Fatalf("convert back: %v", err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for path, want := range map[string]struct {
		size   int
		sha256 string
	}{
		binPath:  {1256, "85b1d5aac3334533ca65ef3ccb1f3eeee43dae7f57396f33fd54db3cee7668cb"},
		backPath: {-1, "8d7ba2fe82e9add568483b6b806a02518f917a6d1061ad3873586cc290f9657d"},
	} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want.size >= 0 && len(blob) != want.size {
			t.Errorf("%s has %d bytes, want %d", filepath.Base(path), len(blob), want.size)
		}
		if got := digest(blob); got != want.sha256 {
			t.Errorf("%s sha256 %s, want %s", filepath.Base(path), got, want.sha256)
		}
	}
	for _, model := range []string{fixtures + "/model.json", binPath} {
		out, err := capture(t, func() error { return rules([]string{"-model", model}) })
		if err != nil {
			t.Fatalf("rules %s: %v", model, err)
		}
		if got := digest([]byte(out)); got != "574a928e240ec97d70762a59f205814af796850c6c8b4d470b5e6a00892be991" {
			t.Errorf("rules from %s: sha256 %s, output:\n%s", filepath.Base(model), got, out)
		}
	}
	out, err := capture(t, func() error {
		return predict([]string{
			"-model", binPath,
			"-in", fixtures + "/input.csv",
			"-format", "ndjson",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(fixtures + "/golden.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("binary-model predict -format ndjson diverges from the golden stream.\ngot:\n%swant:\n%s", out, golden)
	}
}
