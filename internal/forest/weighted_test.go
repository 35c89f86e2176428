package forest

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"udt/internal/core"
)

// weightedTrees zips trees and weights into FromTrees members (no
// precompiled engines, so FromTrees compiles).
func weightedTrees(trees []*core.Tree, weights []float64) []WeightedTree {
	out := make([]WeightedTree, len(trees))
	for i, tree := range trees {
		out[i] = WeightedTree{Tree: tree, Weight: weights[i]}
	}
	return out
}

// buildTrees constructs k single trees on disjoint-seed resamples of ds so
// the members differ, all sharing the dataset schema.
func buildTrees(t *testing.T, k int) []*core.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	ds := mixedDataset(rng, 90, 2, 3)
	trees := make([]*core.Tree, k)
	for i := range trees {
		idx := make([]int, ds.Len())
		for j := range idx {
			idx[j] = rng.Intn(ds.Len())
		}
		tree, err := core.Build(ds.Subset(idx), core.Config{MinWeight: 2})
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	return trees
}

// TestFromTreesWeightedVote: the ensemble distribution must equal the
// weight-weighted average of the member distributions, and Predict its
// argmax.
func TestFromTreesWeightedVote(t *testing.T) {
	trees := buildTrees(t, 3)
	weights := []float64{2, 0.5, 1.25}
	f, err := FromTrees(weightedTrees(trees, weights), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != KindBoosted {
		t.Fatalf("kind = %q", f.Kind())
	}
	ds := mixedDataset(rand.New(rand.NewSource(43)), 40, 2, 3)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, tu := range ds.Tuples {
		want := make([]float64, len(f.Classes))
		for m, tree := range trees {
			for c, p := range tree.Classify(tu) {
				want[c] += weights[m] * p
			}
		}
		for c := range want {
			want[c] /= total
		}
		got := f.Classify(tu)
		for c := range want {
			if math.Abs(got[c]-want[c]) > 1e-12 {
				t.Fatalf("tuple %d class %d: ensemble %v, manual weighted average %v", i, c, got[c], want[c])
			}
		}
		if got := f.Predict(tu); got != argmax(want) {
			t.Fatalf("tuple %d: Predict %d, argmax of weighted average %d", i, got, argmax(want))
		}
	}
}

// TestFromTreesDominantWeight: with one member's weight overwhelming the
// rest, the ensemble must follow that member everywhere.
func TestFromTreesDominantWeight(t *testing.T) {
	trees := buildTrees(t, 3)
	f, err := FromTrees(weightedTrees(trees, []float64{1e9, 1, 1}), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	ds := mixedDataset(rand.New(rand.NewSource(47)), 30, 2, 3)
	for i, tu := range ds.Tuples {
		if got, want := f.Predict(tu), trees[0].Predict(tu); got != want {
			t.Fatalf("tuple %d: ensemble predicts %d, dominant member %d", i, got, want)
		}
	}
}

// TestFromTreesErrors covers the constructor's rejection paths.
func TestFromTreesErrors(t *testing.T) {
	trees := buildTrees(t, 2)
	cases := map[string]func() error{
		"zero trees": func() error {
			_, err := FromTrees(nil, KindBoosted)
			return err
		},
		"nil tree": func() error {
			_, err := FromTrees([]WeightedTree{{Weight: 1}}, KindBoosted)
			return err
		},
		"unknown kind": func() error {
			_, err := FromTrees(weightedTrees(trees, []float64{1, 1}), "stacked")
			return err
		},
		"zero weight": func() error {
			_, err := FromTrees(weightedTrees(trees, []float64{1, 0}), KindBoosted)
			return err
		},
		"negative weight": func() error {
			_, err := FromTrees(weightedTrees(trees, []float64{1, -2}), KindBoosted)
			return err
		},
		"NaN weight": func() error {
			_, err := FromTrees(weightedTrees(trees, []float64{1, math.NaN()}), KindBoosted)
			return err
		},
		"infinite weight": func() error {
			_, err := FromTrees(weightedTrees(trees, []float64{1, math.Inf(1)}), KindBoosted)
			return err
		},
	}
	for name, run := range cases {
		if run() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBaggedForestUniformWeights: Train must produce weight-1 members and
// kind bagged, and its Classify must be the plain member mean — the PR 3
// behaviour, now expressed through the weighted path.
func TestBaggedForestUniformWeights(t *testing.T) {
	ds := mixedDataset(rand.New(rand.NewSource(53)), 80, 2, 3)
	f := trainForest(t, ds, Config{Trees: 5, Seed: 9, TreeConfig: core.Config{MinWeight: 2}})
	if f.Kind() != KindBagged {
		t.Fatalf("trained forest kind = %q", f.Kind())
	}
	for i, w := range f.Weights() {
		if w != 1 {
			t.Fatalf("bagged member %d has weight %v", i, w)
		}
	}
}

// TestContainerV2CarriesWeights: the serialised container must be version 2
// with kind and one weight per member, and a boosted round trip must keep
// the weights bit-for-bit.
func TestContainerV2CarriesWeights(t *testing.T) {
	trees := buildTrees(t, 3)
	weights := []float64{1.5, 0.75, 2.25}
	f, err := FromTrees(weightedTrees(trees, weights), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int    `json:"version"`
		Kind    string `json:"kind"`
		Trees   []struct {
			Weight *float64 `json:"weight"`
		} `json:"trees"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != Version || doc.Kind != KindBoosted || len(doc.Trees) != 3 {
		t.Fatalf("container header = %+v", doc)
	}
	for i, mj := range doc.Trees {
		if mj.Weight == nil || *mj.Weight != weights[i] {
			t.Fatalf("member %d weight = %v, want %v", i, mj.Weight, weights[i])
		}
	}
	var back Forest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for i, w := range back.Weights() {
		if w != weights[i] {
			t.Fatalf("restored weight %d = %v, want %v", i, w, weights[i])
		}
	}
}

// TestContainerV1ImplicitWeights: a version 1 container (the PR 3 format)
// must decode with uniform weight-1 members and kind bagged, and a v1
// document that smuggles a weight must be rejected.
func TestContainerV1ImplicitWeights(t *testing.T) {
	ab := leafTree("a", "b")
	v1 := fmt.Sprintf(`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}, {"tree": %s}]}`, ab, ab)
	var f Forest
	if err := json.Unmarshal([]byte(v1), &f); err != nil {
		t.Fatal(err)
	}
	if f.Kind() != KindBagged {
		t.Fatalf("v1 kind = %q", f.Kind())
	}
	for i, w := range f.Weights() {
		if w != 1 {
			t.Fatalf("v1 member %d weight = %v", i, w)
		}
	}

	smuggled := fmt.Sprintf(`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": 3, "tree": %s}]}`, ab)
	var g Forest
	err := json.Unmarshal([]byte(smuggled), &g)
	if err == nil {
		t.Fatal("v1 container with a weight accepted")
	}
	if !strings.Contains(err.Error(), "carry no weights") {
		t.Fatalf("error %q does not explain the v1 weight rejection", err)
	}

	// A v1 document declaring a kind is equally malformed: "boosted" with
	// implicit uniform weights would flatten the vote structure silently.
	kinded := fmt.Sprintf(`{"version": 1, "kind": "boosted", "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}]}`, ab)
	var h Forest
	err = json.Unmarshal([]byte(kinded), &h)
	if err == nil {
		t.Fatal("v1 container with a kind accepted")
	}
	if !strings.Contains(err.Error(), "carry no ensemble kind") {
		t.Fatalf("error %q does not explain the v1 kind rejection", err)
	}
}

// TestContainerV2BadWeights: invalid or missing vote weights in a v2
// container must be rejected at decode time, not poison serving.
func TestContainerV2BadWeights(t *testing.T) {
	ab := leafTree("a", "b")
	for _, w := range []string{"0", "-1", "1e999"} {
		doc := fmt.Sprintf(`{"version": 2, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": %s, "tree": %s}]}`, w, ab)
		var f Forest
		if err := json.Unmarshal([]byte(doc), &f); err == nil {
			t.Errorf("weight %s accepted", w)
		}
	}
	// A v2 member with NO weight must be rejected too: defaulting it to 1
	// would silently flatten a boosted model's vote structure to uniform.
	missing := fmt.Sprintf(`{"version": 2, "kind": "boosted", "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": %s}]}`, ab)
	var f Forest
	err := json.Unmarshal([]byte(missing), &f)
	if err == nil {
		t.Error("v2 member without a weight accepted")
	} else if !strings.Contains(err.Error(), "must carry a weight") {
		t.Errorf("error %q does not explain the missing v2 weight", err)
	}
	unknownKind := fmt.Sprintf(`{"version": 2, "kind": "stacked", "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": 1, "tree": %s}]}`, ab)
	var g Forest
	if err := json.Unmarshal([]byte(unknownKind), &g); err == nil {
		t.Error("unknown ensemble kind accepted")
	}
}
