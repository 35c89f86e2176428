package forest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"udt/internal/core"
)

// TestForestJSONRoundTrip: a trained forest survives the marshal/unmarshal
// cycle with identical predictions and distributions, including members
// restricted to attribute subsets.
func TestForestJSONRoundTrip(t *testing.T) {
	ds := mixedDataset(rand.New(rand.NewSource(21)), 110, 3, 3)
	f := trainForest(t, ds, Config{Trees: 8, Seed: 6, AttrsPerTree: 2, TreeConfig: core.Config{MinWeight: 2}})
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Forest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumTrees() != f.NumTrees() {
		t.Fatalf("round trip changed tree count: %d vs %d", back.NumTrees(), f.NumTrees())
	}
	if back.OOB != f.OOB {
		t.Fatalf("round trip changed OOB stats: %+v vs %+v", back.OOB, f.OOB)
	}
	for i, tu := range ds.Tuples {
		if got, want := back.Predict(tu), f.Predict(tu); got != want {
			t.Fatalf("tuple %d: restored forest predicts %d, original %d", i, got, want)
		}
		gd, wd := back.Classify(tu), f.Classify(tu)
		for c := range wd {
			if gd[c] != wd[c] {
				t.Fatalf("tuple %d class %d: restored %v, original %v", i, c, gd[c], wd[c])
			}
		}
	}
}

// TestForestJSONTruncated: every strict prefix of a valid container must be
// rejected, never panic or yield a partial forest.
func TestForestJSONTruncated(t *testing.T) {
	ds := mixedDataset(rand.New(rand.NewSource(23)), 60, 2, 2)
	f := trainForest(t, ds, Config{Trees: 3, Seed: 7, TreeConfig: core.Config{MinWeight: 2}})
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(blob); cut += 11 {
		var back Forest
		if err := json.Unmarshal(blob[:cut], &back); err == nil {
			t.Fatalf("truncated container of %d/%d bytes accepted", cut, len(blob))
		}
	}
}

// leaf returns a minimal valid single-tree document body for the given
// class vocabulary.
func leafTree(classes ...string) string {
	dist := make([]string, len(classes))
	for i := range dist {
		dist[i] = "0"
	}
	dist[0] = "1"
	return fmt.Sprintf(`{"classes": [%q%s], "numAttrs": [{"name": "A1"}], "root": {"dist": [%s], "w": 1}}`,
		classes[0], moreClasses(classes[1:]), strings.Join(dist, ", "))
}

func moreClasses(rest []string) string {
	out := ""
	for _, c := range rest {
		out += fmt.Sprintf(", %q", c)
	}
	return out
}

// TestForestJSONErrors covers the malformed-container paths: unknown
// versions, zero trees, mixed class vocabularies, bad index maps and broken
// member documents.
func TestForestJSONErrors(t *testing.T) {
	ab := leafTree("a", "b")
	cases := map[string]struct {
		doc  string
		want string
	}{
		"unknown version": {
			doc:  fmt.Sprintf(`{"version": 99, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}]}`, ab),
			want: "unknown container version",
		},
		"missing version": {
			doc:  fmt.Sprintf(`{"classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}]}`, ab),
			want: "unknown container version",
		},
		"zero trees": {
			doc:  `{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": []}`,
			want: "zero trees",
		},
		"no classes": {
			doc:  fmt.Sprintf(`{"version": 1, "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}]}`, ab),
			want: "no classes",
		},
		"mixed class vocabularies": {
			doc: fmt.Sprintf(`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}, {"tree": %s}]}`,
				ab, leafTree("a", "z")),
			want: "container has",
		},
		"classless tree document": {
			doc:  `{"classes": [], "numAttrs": [{"name": "A1"}], "root": {"dist": [], "w": 1}}`,
			want: "class vocabulary",
		},
		"member class count mismatch": {
			doc: fmt.Sprintf(`{"version": 1, "classes": ["a", "b", "c"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}]}`,
				ab),
			want: "member has 2 classes",
		},
		"missing tree document": {
			doc:  `{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"numIdx": [0]}]}`,
			want: "missing tree",
		},
		"schema arity mismatch without map": {
			doc: fmt.Sprintf(`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}, {"name": "A2"}], "trees": [{"tree": %s}]}`,
				ab),
			want: "no numIdx map",
		},
		"index map out of range": {
			doc: fmt.Sprintf(`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"numIdx": [5], "catIdx": [], "tree": %s}]}`,
				ab),
			want: "out of range",
		},
		"index map duplicate entry": {
			doc: `{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}, {"name": "A2"}],
				"trees": [{"numIdx": [0, 0], "catIdx": [],
				"tree": {"classes": ["a", "b"], "numAttrs": [{"name": "A1"}, {"name": "A2"}], "root": {"dist": [1, 0], "w": 1}}}]}`,
			want: "duplicated",
		},
		"categorical domain value mismatch": {
			doc: `{"version": 1, "classes": ["a", "b"], "catAttrs": [{"name": "C1", "domain": ["x", "y"]}],
				"trees": [{"tree": {"classes": ["a", "b"],
				"catAttrs": [{"name": "C1", "domain": ["y", "x"]}], "root": {"dist": [1, 0], "w": 1}}}]}`,
			want: "domain value",
		},
		"categorical domain arity mismatch": {
			doc: `{"version": 1, "classes": ["a", "b"], "catAttrs": [{"name": "C1", "domain": ["x", "y"]}],
				"trees": [{"tree": {"classes": ["a", "b"],
				"catAttrs": [{"name": "C1", "domain": ["x", "y", "z"]}], "root": {"dist": [1, 0], "w": 1}}}]}`,
			want: "domain values",
		},
		"attribute name mismatch": {
			doc: `{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}, {"name": "A2"}],
				"trees": [{"numIdx": [1], "catIdx": [],
				"tree": {"classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "root": {"dist": [1, 0], "w": 1}}}]}`,
			want: "maps it to",
		},
		"mixed identity and projection maps": {
			doc: fmt.Sprintf(`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"catIdx": [], "tree": %s}]}`,
				ab),
			want: "both present or both absent",
		},
		"index map arity mismatch": {
			doc: fmt.Sprintf(`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"numIdx": [0, 0], "catIdx": [], "tree": %s}]}`,
				ab),
			want: "numIdx has 2 entries",
		},
	}
	for name, tc := range cases {
		var f Forest
		err := json.Unmarshal([]byte(tc.doc), &f)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestForestJSONLegacySingleTree: a legacy single-tree document (no version,
// no trees array) decodes as a one-member KindTree forest that classifies
// bit-identically to the tree, describes itself as the tree did, and
// marshals back to the tree document byte for byte. A container declaring
// kind "tree" is refused, so each kind has exactly one JSON form.
func TestForestJSONLegacySingleTree(t *testing.T) {
	ds := mixedDataset(rand.New(rand.NewSource(29)), 120, 2, 3)
	tree, err := core.Build(ds, core.Config{MinWeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	treeBlob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var f Forest
	if err := json.Unmarshal(treeBlob, &f); err != nil {
		t.Fatal(err)
	}
	if f.Kind() != KindTree || f.NumTrees() != 1 || f.StageCount() != 1 {
		t.Fatalf("decoded kind %q with %d members", f.Kind(), f.NumTrees())
	}
	want := fmt.Sprintf("tree (%d nodes, depth %d)", tree.Stats.Nodes, tree.Stats.Depth)
	if got := f.Describe(); got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
	back, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(treeBlob) {
		t.Fatal("KindTree forest does not marshal back to its tree document")
	}
	compiled, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range ds.Tuples {
		got, want := f.Classify(tu), compiled.Classify(tu)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("tuple %d: forest %v, tree %v", i, got, want)
			}
		}
		if p, k := f.PredictEarlyExit(tu); p != compiled.Predict(tu) || k != 1 {
			t.Fatalf("tuple %d: early exit (%d, %d members), tree predicts %d", i, p, k, compiled.Predict(tu))
		}
	}

	kinded := fmt.Sprintf(`{"version": 2, "kind": "tree", "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": 1, "tree": %s}]}`,
		leafTree("a", "b"))
	var g Forest
	if err := json.Unmarshal([]byte(kinded), &g); err == nil || !strings.Contains(err.Error(), `kind "tree"`) {
		t.Fatalf("container declaring kind tree: error %v", err)
	}
}

// TestTreeKindRule: FromTrees enforces the one-member, weight-1 rule of
// KindTree, and a valid tree stages to exactly one member.
func TestTreeKindRule(t *testing.T) {
	trees := buildTrees(t, 2)
	if _, err := FromTrees(weightedTrees(trees, []float64{1, 1}), KindTree); err == nil || !strings.Contains(err.Error(), "exactly one member") {
		t.Errorf("two-member tree: error %v", err)
	}
	if _, err := FromTrees(weightedTrees(trees[:1], []float64{2}), KindTree); err == nil || !strings.Contains(err.Error(), "vote weight is 1") {
		t.Errorf("weight-2 tree: error %v", err)
	}
	f, err := FromTrees(weightedTrees(trees[:1], []float64{1}), KindTree)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.EvalOrder(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("tree evaluation order %v", got)
	}
}
