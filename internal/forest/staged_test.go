package forest

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/pdf"
)

// TestEvalOrder: members must be visited by descending vote weight with ties
// keeping member order, so a bagged ensemble's order is the member order.
func TestEvalOrder(t *testing.T) {
	trees := buildTrees(t, 5)
	weights := []float64{0.5, 2, 1, 2, 1}
	f, err := FromTrees(weightedTrees(trees, weights), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 2, 4, 0}
	got := f.EvalOrder()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EvalOrder = %v, want %v", got, want)
		}
	}
	if f.StageCount() != 5 {
		t.Fatalf("StageCount = %d", f.StageCount())
	}

	ds := mixedDataset(rand.New(rand.NewSource(11)), 80, 2, 3)
	bagged := trainForest(t, ds, Config{Trees: 6, Seed: 3, TreeConfig: core.Config{MinWeight: 2}})
	for i, m := range bagged.EvalOrder() {
		if m != i {
			t.Fatalf("bagged EvalOrder = %v, want identity", bagged.EvalOrder())
		}
	}
}

// TestClassifyStagedPrefix: the stage-k distribution must equal the
// weight-weighted average of the first k evaluation-order members computed
// independently through the recursive trees, for every k — and the final
// stage must be byte-identical to Classify.
func TestClassifyStagedPrefix(t *testing.T) {
	trees := buildTrees(t, 5)
	weights := []float64{0.5, 2, 1, 2, 1}
	f, err := FromTrees(weightedTrees(trees, weights), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	order := f.EvalOrder()
	ds := mixedDataset(rand.New(rand.NewSource(13)), 40, 2, 3)
	for i, tu := range ds.Tuples {
		for k := 1; k <= f.StageCount(); k++ {
			got, err := f.ClassifyStaged(tu, k)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(f.Classes))
			total := 0.0
			for _, m := range order[:k] {
				for c, p := range trees[m].Classify(tu) {
					want[c] += weights[m] * p
				}
				total += weights[m]
			}
			for c := range want {
				want[c] /= total
				if math.Abs(got[c]-want[c]) > 1e-12 {
					t.Fatalf("tuple %d stage %d class %d: staged %v, manual %v", i, k, c, got[c], want[c])
				}
			}
			pred, err := f.PredictStaged(tu, k)
			if err != nil {
				t.Fatal(err)
			}
			if pred != argmax(got) {
				t.Fatalf("tuple %d stage %d: PredictStaged %d, argmax of ClassifyStaged %d", i, k, pred, argmax(got))
			}
		}
		full, err := f.ClassifyStaged(tu, f.StageCount())
		if err != nil {
			t.Fatal(err)
		}
		for c, p := range f.Classify(tu) {
			if full[c] != p {
				t.Fatalf("tuple %d class %d: final stage %v != Classify %v", i, c, full[c], p)
			}
		}
	}
}

// TestStagedStageErrors: stage counts outside [1, StageCount()] must be
// rejected.
func TestStagedStageErrors(t *testing.T) {
	trees := buildTrees(t, 3)
	f, err := FromTrees(weightedTrees(trees, []float64{3, 2, 1}), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 0, 4} {
		if _, err := f.ClassifyStaged(nil, k); err == nil {
			t.Errorf("ClassifyStaged accepted stage %d", k)
		}
		if _, err := f.PredictStaged(nil, k); err == nil {
			t.Errorf("PredictStaged accepted stage %d", k)
		}
	}
}

// TestPredictEarlyExitMatchesFull: early exit must return exactly Predict's
// class on every tuple — for boosted ensembles (skewed weights, where exits
// actually trigger) and for bagged projected ones (uniform weights, the
// degenerate order) — while evaluating between 1 and StageCount() members.
func TestPredictEarlyExitMatchesFull(t *testing.T) {
	trees := buildTrees(t, 7)
	weights := []float64{4, 2.5, 1.5, 1, 0.75, 0.5, 0.25}
	boosted, err := FromTrees(weightedTrees(trees, weights), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	ds := mixedDataset(rand.New(rand.NewSource(17)), 120, 2, 3)
	bagged := trainForest(t, ds, Config{Trees: 7, Seed: 5, AttrsPerTree: 2, TreeConfig: core.Config{MinWeight: 2}})

	for name, f := range map[string]*Forest{"boosted": boosted, "bagged": bagged} {
		exits := 0
		for i, tu := range ds.Tuples {
			class, k := f.PredictEarlyExit(tu)
			if want := f.Predict(tu); class != want {
				t.Fatalf("%s tuple %d: early exit predicts %d, full %d", name, i, class, want)
			}
			if k < 1 || k > f.StageCount() {
				t.Fatalf("%s tuple %d: evaluated %d members of %d", name, i, k, f.StageCount())
			}
			if k < f.StageCount() {
				exits++
			}
		}
		if name == "boosted" && exits == 0 {
			t.Error("boosted: early exit never triggered on a heavily skewed ensemble")
		}
	}
}

// TestPredictBatchEarlyExit: the batch path must be positionally identical to
// the serial one — predictions and evaluated counts — at every worker count.
func TestPredictBatchEarlyExit(t *testing.T) {
	trees := buildTrees(t, 5)
	f, err := FromTrees(weightedTrees(trees, []float64{3, 2, 1.5, 1, 0.5}), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	ds := mixedDataset(rand.New(rand.NewSource(19)), 100, 2, 3)
	wantPreds := make([]int, ds.Len())
	wantEval := make([]int, ds.Len())
	for i, tu := range ds.Tuples {
		wantPreds[i], wantEval[i] = f.PredictEarlyExit(tu)
	}
	for _, workers := range []int{1, 2, 8} {
		preds, eval := f.PredictBatchEarlyExit(ds.Tuples, workers)
		for i := range ds.Tuples {
			if preds[i] != wantPreds[i] || eval[i] != wantEval[i] {
				t.Fatalf("workers=%d tuple %d: batch (%d, %d), serial (%d, %d)",
					workers, i, preds[i], eval[i], wantPreds[i], wantEval[i])
			}
		}
	}
}

// TestStagedSurvivesRoundTrip: a forest restored from its JSON container must
// carry the same evaluation order and early-exit behaviour as the original.
func TestStagedSurvivesRoundTrip(t *testing.T) {
	trees := buildTrees(t, 4)
	f, err := FromTrees(weightedTrees(trees, []float64{2, 3, 1, 1}), KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Forest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	wantOrder := f.EvalOrder()
	for i, m := range back.EvalOrder() {
		if m != wantOrder[i] {
			t.Fatalf("restored EvalOrder = %v, want %v", back.EvalOrder(), wantOrder)
		}
	}
	ds := mixedDataset(rand.New(rand.NewSource(23)), 50, 2, 3)
	for i, tu := range ds.Tuples {
		c1, k1 := f.PredictEarlyExit(tu)
		c2, k2 := back.PredictEarlyExit(tu)
		if c1 != c2 || k1 != k2 {
			t.Fatalf("tuple %d: original (%d, %d), restored (%d, %d)", i, c1, k1, c2, k2)
		}
	}
}

// edgeMember is a two-class tree over one numeric attribute: a leaf
// emitting left when right is nil, otherwise a test x <= 0.5 with those two
// leaves.
func edgeMember(left, right []float64) *core.Tree {
	root := &core.Node{Dist: left, W: 1}
	if right != nil {
		root = &core.Node{Attr: 0, Split: 0.5, W: 2,
			Left: &core.Node{Dist: left, W: 1}, Right: &core.Node{Dist: right, W: 1}}
	}
	return &core.Tree{
		Root:     root,
		Classes:  []string{"a", "b"},
		NumAttrs: []data.Attribute{{Name: "x", Kind: data.Numeric}},
	}
}

// slackEdgeForest is a two-member boosted ensemble: member 0 (weight 2)
// emits lead, member 1 (weight 1) emits [1, 0], so exitUB after one member
// is [1, 0].
func slackEdgeForest(t *testing.T, lead ...float64) *Forest {
	t.Helper()
	f, err := FromTrees([]WeightedTree{
		{Tree: edgeMember(lead, nil), Weight: 2},
		{Tree: edgeMember([]float64{1, 0}, nil), Weight: 1},
	}, KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSettledBoundary pins settled's comparison at the edge of the slack:
// a leader whose margin is exactly exitUB + exitSlack is settled, one ulp
// less is not, one ulp more is.
func TestSettledBoundary(t *testing.T) {
	f := slackEdgeForest(t, 0.25, 0.75)
	const nc, k = 2, 1
	for lead := 0; lead < nc; lead++ {
		other := 1 - lead
		edge := f.exitUB[k*nc+other] + f.exitSlack
		for _, tc := range []struct {
			margin float64
			want   bool
		}{
			{math.Nextafter(edge, 0), false},
			{edge, true},
			{math.Nextafter(edge, math.Inf(1)), true},
		} {
			out := make([]float64, nc)
			out[lead] = tc.margin
			if got := f.settled(out, lead, k, nc); got != tc.want {
				t.Errorf("lead %d, margin %v (edge %v): settled = %v, want %v", lead, tc.margin, edge, got, tc.want)
			}
		}
	}
}

// TestEarlyExitSlackEdge: after member 0 the leader (class b) leads by
// exactly the remaining bound, or by less than exitSlack more. Only the
// slack keeps early exit going, and it must: the exact case ends in an
// exact tie, which Predict breaks toward the lowest class index (a).
func TestEarlyExitSlackEdge(t *testing.T) {
	for _, tc := range []struct {
		name string
		lead []float64
		want int
	}{
		{"exact tie", []float64{0.25, 0.75}, 0},
		{"margin 4e-12 above the bound", []float64{0.25 - 1e-12, 0.75 + 1e-12}, 1},
	} {
		f := slackEdgeForest(t, tc.lead...)
		tu := &data.Tuple{Num: []*pdf.PDF{pdf.Point(0.3)}, Weight: 1}
		class, k := f.PredictEarlyExit(tu)
		if want := f.Predict(tu); want != tc.want || class != want || k != 2 {
			t.Errorf("%s: early exit (class %d, %d members), Predict %d, want class %d after 2 members",
				tc.name, class, k, want, tc.want)
		}
	}
}

// TestEarlyExitNearTie: a boosted ensemble whose members' leaves differ from
// a uniform vote by ~1e-12 ends every tuple with a margin below exitSlack.
// Early exit must evaluate every member and return Predict's class.
func TestEarlyExitNearTie(t *testing.T) {
	weights := []float64{3.5, 2.25, 1.5, 1, 0.75, 0.5}
	members := make([]WeightedTree, len(weights))
	total := 0.0
	for j, w := range weights {
		d := float64(j+1) * 1e-12
		if j%2 == 1 {
			d = -d
		}
		members[j] = WeightedTree{Tree: edgeMember([]float64{0.5 + d, 0.5 - d}, []float64{0.5 - d, 0.5 + d}), Weight: w}
		total += w
	}
	f, err := FromTrees(members, KindBoosted)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		lo := rng.Float64()
		p, err := pdf.Uniform(lo, lo+rng.Float64()*0.5, 1+rng.Intn(9))
		if err != nil {
			t.Fatal(err)
		}
		tu := &data.Tuple{Num: []*pdf.PDF{p}, Weight: 1}
		dist := f.Classify(tu)
		if margin := math.Abs(dist[0]-dist[1]) * total; margin >= f.exitSlack {
			t.Fatalf("tuple %d: final margin %g is not below exitSlack %g", i, margin, f.exitSlack)
		}
		class, k := f.PredictEarlyExit(tu)
		if want := f.Predict(tu); class != want || k != f.StageCount() {
			t.Fatalf("tuple %d: early exit (class %d, %d members), Predict %d after %d", i, class, k, want, f.StageCount())
		}
	}
}
