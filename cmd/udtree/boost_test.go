package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"udt/internal/forest"
	"udt/internal/modelio"
)

// TestTrainBoostRoundTrip: train -boost must write a v2 weighted container
// that predict and eval both serve, with the report line naming the
// ensemble.
func TestTrainBoostRoundTrip(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)

	out, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-boost", "-rounds", "5", "-minweight", "1"})
	})
	if err != nil {
		t.Fatalf("train -boost: %v", err)
	}
	if !strings.Contains(out, "trained boosted ensemble on 8 tuples") {
		t.Fatalf("train output: %q", out)
	}

	blob, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int    `json:"version"`
		Kind    string `json:"kind"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != forest.Version || doc.Kind != forest.KindBoosted {
		t.Fatalf("container header = %+v", doc)
	}

	mdl, err := modelio.Load(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if mdl.Kind() != forest.KindBoosted {
		t.Fatalf("loaded kind = %q", mdl.Kind())
	}

	out, err = capture(t, func() error {
		return evalCmd([]string{"-model", modelPath, "-in", testPath})
	})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !strings.Contains(out, "accuracy: 100.00%") || !strings.Contains(out, "boosted ensemble") {
		t.Fatalf("eval output: %q", out)
	}
}

// TestTrainBoostErrors covers the -boost flag validation paths.
func TestTrainBoostErrors(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	cases := map[string][]string{
		"boost and forest": {"-in", trainPath, "-out", modelPath, "-boost", "-forest"},
		"boost and avg":    {"-in", trainPath, "-out", modelPath, "-boost", "-avg"},
		"zero rounds":      {"-in", trainPath, "-out", modelPath, "-boost", "-rounds", "0"},
		"bad rate":         {"-in", trainPath, "-out", modelPath, "-boost", "-learning-rate", "-0.5"},
	}
	for name, args := range cases {
		if _, err := capture(t, func() error { return train(args) }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPredictNDJSON: -format ndjson must emit one parseable StreamResult
// per tuple, 1-based and in input order, agreeing with the human format's
// predictions; an unknown format must be rejected.
func TestPredictNDJSON(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath, "-format", "ndjson"})
	})
	if err != nil {
		t.Fatalf("predict -format ndjson: %v", err)
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	var results []modelio.StreamResult
	for sc.Scan() {
		var r modelio.StreamResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d is not a StreamResult: %v (%q)", len(results)+1, err, sc.Text())
		}
		results = append(results, r)
	}
	if len(results) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2:\n%s", len(results), out)
	}
	for i, want := range []string{"lo", "hi"} {
		r := results[i]
		if r.Line != i+1 || r.Class != want || r.Error != "" {
			t.Fatalf("line %d = %+v, want class %q", i+1, r, want)
		}
		sum := 0.0
		for _, p := range r.Dist {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("line %d distribution does not sum to 1: %v", i+1, r.Dist)
		}
	}

	if _, err := capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath, "-format", "xml"})
	}); err == nil || !strings.Contains(err.Error(), "unknown -format") {
		t.Fatalf("unknown format error = %v", err)
	}
}

// TestPredictNDJSONGolden pins predict -format ndjson to the shared golden
// stream in testdata/stream: the exact bytes udtserve answers for the same
// tuples over POST /classify/stream (cmd/udtserve pins the server side to
// the same file). Regenerate the fixtures with `go run
// testdata/stream/gen.go` from the repo root.
func TestPredictNDJSONGolden(t *testing.T) {
	fixtures := "../../testdata/stream"
	out, err := capture(t, func() error {
		return predict([]string{
			"-model", fixtures + "/model.json",
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
		t.Fatalf("predict -format ndjson diverges from the server stream protocol golden.\ngot:\n%swant:\n%s", out, golden)
	}
}
