package modelio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"udt/internal/binfmt"
	"udt/internal/core"
	"udt/internal/forest"
)

// writeModel encodes the model as a binary container in a temp file.
func writeModel(t *testing.T, m *forest.Forest, dir, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := binfmt.EncodeForest(&buf, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadBinaryAutoDetect: Load sniffs the magic and routes binary
// containers to the mmap loader; loaded models predict identically to their
// JSON-loaded sources and report their container format.
func TestLoadBinaryAutoDetect(t *testing.T) {
	ds := twoClassDataset(80)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := forest.Train(ds, forest.Config{Trees: 5, Seed: 3, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := forest.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	treeBin := writeModel(t, tm, dir, "tree.udt")
	forestBin := writeModel(t, fr, dir, "forest.udt")

	btm, err := Load(treeBin)
	if err != nil {
		t.Fatal(err)
	}
	defer btm.Close()
	bfm, err := Load(forestBin)
	if err != nil {
		t.Fatal(err)
	}
	defer bfm.Close()

	for name, m := range map[string]*Model{"tree": btm, "forest": bfm} {
		if m.Format != FormatBinary {
			t.Fatalf("%s container format %q, want %q", name, m.Format, FormatBinary)
		}
	}
	if btm.Kind() != forest.KindTree || bfm.Kind() != forest.KindBagged {
		t.Fatalf("binary kinds %q and %q, want tree and bagged", btm.Kind(), bfm.Kind())
	}
	if bfm.NumTrees() != fr.NumTrees() {
		t.Fatalf("%d trees, want %d", bfm.NumTrees(), fr.NumTrees())
	}
	if btm.Describe() != tm.Describe() {
		t.Fatalf("binary tree describes %q, JSON %q", btm.Describe(), tm.Describe())
	}

	for i, tu := range ds.Tuples {
		wantT, wantF := tm.Classify(tu), fr.Classify(tu)
		gotT, gotF := btm.Classify(tu), bfm.Classify(tu)
		for ci := range wantT {
			if gotT[ci] != wantT[ci] {
				t.Fatalf("tuple %d: binary tree %v, want %v", i, gotT, wantT)
			}
		}
		for ci := range wantF {
			if gotF[ci] != wantF[ci] {
				t.Fatalf("tuple %d: binary forest %v, want %v", i, gotF, wantF)
			}
		}
	}

	// Binary models stage exactly like their sources: the forest's early
	// exits, and the tree's single member.
	for i, tu := range ds.Tuples[:20] {
		wp, we := fr.PredictEarlyExit(tu)
		gp, ge := bfm.PredictEarlyExit(tu)
		if wp != gp || we != ge {
			t.Fatalf("tuple %d: early exit (%d,%d), want (%d,%d)", i, gp, ge, wp, we)
		}
		if p, k := btm.PredictEarlyExit(tu); p != tree.Predict(tu) || k != 1 {
			t.Fatalf("tuple %d: tree early exit (%d,%d), want (%d,1)", i, p, k, tree.Predict(tu))
		}
	}
}

// TestTreeSource: both JSON- and binary-loaded trees surface a pointer tree;
// the decompiled tree predicts identically to the compiled arrays.
func TestTreeSource(t *testing.T) {
	ds := twoClassDataset(60)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := forest.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if src, err := tm.MemberTree(0); err != nil || src != tree {
		t.Fatalf("JSON MemberTree = (%p, %v), want the original tree", src, err)
	}

	path := writeModel(t, tm, t.TempDir(), "tree.udt")
	bm, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Close()
	decompiled, err := bm.MemberTree(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range ds.Tuples {
		want := tm.Classify(tu)
		got := decompiled.Classify(tu)
		for ci := range want {
			if got[ci] != want[ci] {
				t.Fatalf("tuple %d: decompiled %v, want %v", i, got, want)
			}
		}
	}
}

// TestEncodeBinaryFromBinary: a binary-loaded model can be re-encoded —
// convert must work in both directions from any source format.
func TestEncodeBinaryFromBinary(t *testing.T) {
	ds := twoClassDataset(60)
	fr, err := forest.Train(ds, forest.Config{Trees: 3, Seed: 5, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := writeModel(t, fr, dir, "a.udt")
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var buf bytes.Buffer
	if err := binfmt.EncodeForest(&buf, m.Forest); err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Format != FormatBinary {
		t.Fatalf("re-encoded container format %q", m2.Format)
	}
	for i, tu := range ds.Tuples[:20] {
		if got, want := m2.Predict(tu), fr.Predict(tu); got != want {
			t.Fatalf("tuple %d: re-encoded model predicts %d, want %d", i, got, want)
		}
	}
}

// TestLoadErrorsNamePathAndOffset: decode failures must tell the operator
// which file and where in it the problem sits.
func TestLoadErrorsNamePathAndOffset(t *testing.T) {
	dir := t.TempDir()

	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte(`{"version": 1, "trees": [,]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(badJSON)
	if err == nil {
		t.Fatal("broken JSON accepted")
	}
	if !strings.Contains(err.Error(), badJSON) {
		t.Errorf("error %q does not name the path", err)
	}
	if !strings.Contains(err.Error(), "byte offset") {
		t.Errorf("error %q does not name the byte offset", err)
	}

	// A truncated binary container must name the path (binfmt wraps it) and
	// a file offset.
	ds := twoClassDataset(40)
	fr, err := forest.Train(ds, forest.Config{Trees: 2, Seed: 1, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := binfmt.EncodeForest(&buf, fr); err != nil {
		t.Fatal(err)
	}
	badBin := filepath.Join(dir, "bad.udt")
	if err := os.WriteFile(badBin, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(badBin)
	if err == nil {
		t.Fatal("truncated binary container accepted")
	}
	if !strings.Contains(err.Error(), badBin) {
		t.Errorf("error %q does not name the path", err)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error %q does not name an offset", err)
	}
}

// TestCloseIdempotentWrappers: Model.Close must be nil-safe and idempotent
// for every model — binary trees and forests, concurrent double close, a nil
// model, and JSON models. Run under -race.
func TestCloseIdempotentWrappers(t *testing.T) {
	ds := twoClassDataset(80)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := forest.Train(ds, forest.Config{Trees: 4, Seed: 3, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := forest.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, path := range map[string]string{
		"tree":   writeModel(t, tm, dir, "tree.udt"),
		"forest": writeModel(t, fr, dir, "forest.udt"),
	} {
		t.Run(name, func(t *testing.T) {
			m, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := m.Close(); err != nil {
						t.Errorf("concurrent Close: %v", err)
					}
				}()
			}
			wg.Wait()
			if err := m.Close(); err != nil {
				t.Fatalf("repeat Close: %v", err)
			}
		})
	}
	var nm *Model
	if err := nm.Close(); err != nil {
		t.Fatalf("nil model Close: %v", err)
	}
	blob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	jm, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatalf("JSON model Close: %v", err)
	}
}
