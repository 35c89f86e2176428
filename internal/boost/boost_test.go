package boost_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"udt/internal/boost"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/eval"
	"udt/internal/forest"
	"udt/internal/pdf"
)

// spiralDataset builds a two-attribute, three-class dataset with interleaved
// class regions: hard enough that a depth-limited tree misclassifies some
// training tuples (so boosting has rounds to run), easy enough that boosting
// visibly helps.
func spiralDataset(rng *rand.Rand, n int) *data.Dataset {
	ds := data.NewDataset("spiral", 2, []string{"a", "b", "c"})
	for i := 0; i < n; i++ {
		c := i % 3
		angle := rng.Float64()*2*math.Pi/3 + float64(c)*2*math.Pi/3
		r := 1 + rng.Float64()*2
		x := r * math.Cos(angle)
		y := r * math.Sin(angle)
		px, _ := pdf.Uniform(x-0.3, x+0.3, 7)
		py, _ := pdf.Uniform(y-0.3, y+0.3, 7)
		ds.Add(c, px, py)
	}
	return ds
}

// stumpConfig limits members to shallow trees so no single round fits the
// training set perfectly.
func stumpConfig() core.Config {
	return core.Config{MaxDepth: 2, MinWeight: 2}
}

// TestTrainImprovesOverSingleTree: the boosted ensemble's training accuracy
// must beat the first member's (a single tree built under the identical
// configuration sees the uniform weights of round one).
func TestTrainImprovesOverSingleTree(t *testing.T) {
	ds := spiralDataset(rand.New(rand.NewSource(3)), 240)
	single, err := eval.Tree(stumpConfig())(ds)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := boost.Train(ds, boost.Config{Rounds: 20, TreeConfig: stumpConfig()})
	if err != nil {
		t.Fatal(err)
	}
	singleAcc := eval.Accuracy(single, ds)
	boostAcc := eval.Accuracy(boosted, ds)
	if boosted.NumTrees() < 2 {
		t.Fatalf("boosting stopped after %d rounds; the task is too easy for the test to mean anything", boosted.NumTrees())
	}
	if boostAcc <= singleAcc {
		t.Fatalf("boosted training accuracy %.4f does not beat the single depth-limited tree's %.4f", boostAcc, singleAcc)
	}
	if boosted.Kind() != forest.KindBoosted {
		t.Fatalf("kind = %q", boosted.Kind())
	}
}

// TestVoteWeightsPositiveAndOrdered: every alpha must be positive and the
// ensemble must report one per member.
func TestVoteWeights(t *testing.T) {
	ds := spiralDataset(rand.New(rand.NewSource(5)), 180)
	f, err := boost.Train(ds, boost.Config{Rounds: 8, TreeConfig: stumpConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ws := f.Weights()
	if len(ws) != f.NumTrees() {
		t.Fatalf("%d weights for %d trees", len(ws), f.NumTrees())
	}
	for i, w := range ws {
		if !(w > 0) || math.IsInf(w, 0) {
			t.Fatalf("member %d has vote weight %v", i, w)
		}
	}
}

// TestLearningRateShrinksAlphas: halving the learning rate must halve every
// round-one alpha (later rounds diverge because the weight trajectories do).
func TestLearningRateShrinksAlphas(t *testing.T) {
	ds := spiralDataset(rand.New(rand.NewSource(7)), 180)
	full, err := boost.Train(ds, boost.Config{Rounds: 1, TreeConfig: stumpConfig()})
	if err != nil {
		t.Fatal(err)
	}
	half, err := boost.Train(ds, boost.Config{Rounds: 1, LearningRate: 0.5, TreeConfig: stumpConfig()})
	if err != nil {
		t.Fatal(err)
	}
	fw, hw := full.Weights()[0], half.Weights()[0]
	if math.Abs(hw-fw/2) > 1e-12 {
		t.Fatalf("learning rate 0.5 alpha %v is not half of %v", hw, fw)
	}
}

// TestPerfectMemberStopsEarly: on a trivially separable dataset the first
// unrestricted member is perfect, so training must stop with exactly one
// member carrying the capped vote weight.
func TestPerfectMemberStopsEarly(t *testing.T) {
	ds := data.NewDataset("sep", 1, []string{"lo", "hi"})
	for i := 0; i < 40; i++ {
		c := i % 2
		ds.Add(c, pdf.Point(float64(c*10)+float64(i%7)/10))
	}
	f, err := boost.Train(ds, boost.Config{Rounds: 12, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 1 {
		t.Fatalf("perfect member did not stop training: %d trees", f.NumTrees())
	}
	if acc := eval.Accuracy(f, ds); acc != 1 {
		t.Fatalf("perfect ensemble has accuracy %v", acc)
	}
}

// TestDeterministicAcrossWorkers: the serialised model must be byte-identical
// at any Workers value and across re-runs (the boost twin of the forest
// determinism guarantee; the cross-model matrix lives in the root package).
func TestDeterministicAcrossWorkers(t *testing.T) {
	ds := spiralDataset(rand.New(rand.NewSource(11)), 150)
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		cfg := boost.Config{Rounds: 6, Workers: workers, TreeConfig: stumpConfig()}
		cfg.TreeConfig.Workers = workers
		f, err := boost.Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blob
			continue
		}
		if string(blob) != string(want) {
			t.Fatalf("workers=%d serialises differently", workers)
		}
	}
}

// TestTrainErrors covers the rejection paths: empty data, one class, bad
// learning rates, and a first round no better than chance.
func TestTrainErrors(t *testing.T) {
	empty := data.NewDataset("empty", 1, []string{"a", "b"})
	if _, err := boost.Train(empty, boost.Config{}); err == nil {
		t.Error("empty dataset accepted")
	}

	oneClass := data.NewDataset("one", 1, []string{"only"})
	oneClass.Add(0, pdf.Point(1))
	if _, err := boost.Train(oneClass, boost.Config{}); err == nil {
		t.Error("single-class dataset accepted")
	}

	ds := spiralDataset(rand.New(rand.NewSource(13)), 60)
	for _, lr := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := boost.Train(ds, boost.Config{LearningRate: lr, TreeConfig: stumpConfig()}); err == nil {
			t.Errorf("LearningRate %v accepted", lr)
		}
	}

	// Pure label noise: two identical point tuples per pair with opposite
	// classes. No split separates them, so round one sits at chance and must
	// fail loudly rather than return an empty ensemble.
	noise := data.NewDataset("noise", 1, []string{"a", "b"})
	for i := 0; i < 30; i++ {
		noise.Add(i%2, pdf.Point(float64(i/2)))
	}
	if _, err := boost.Train(noise, boost.Config{TreeConfig: core.Config{MaxDepth: 1, MinWeight: 30}}); err == nil {
		t.Error("chance-level first round accepted")
	}
}

// TestRoundTripThroughContainer: a boosted ensemble must survive the v2
// container byte-for-byte in behaviour — identical predictions, kind and
// weights after decode.
func TestRoundTripThroughContainer(t *testing.T) {
	ds := spiralDataset(rand.New(rand.NewSource(17)), 150)
	f, err := boost.Train(ds, boost.Config{Rounds: 8, TreeConfig: stumpConfig()})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back forest.Forest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind() != forest.KindBoosted {
		t.Fatalf("restored kind = %q", back.Kind())
	}
	bw, fw := back.Weights(), f.Weights()
	if len(bw) != len(fw) {
		t.Fatalf("restored %d weights, want %d", len(bw), len(fw))
	}
	for i := range fw {
		if bw[i] != fw[i] {
			t.Fatalf("weight %d: restored %v, trained %v", i, bw[i], fw[i])
		}
	}
	for i, tu := range ds.Tuples {
		if got, want := back.Predict(tu), f.Predict(tu); got != want {
			t.Fatalf("tuple %d: restored predicts %d, trained %d", i, got, want)
		}
		gd, wd := back.Classify(tu), f.Classify(tu)
		for c := range wd {
			if gd[c] != wd[c] {
				t.Fatalf("tuple %d class %d: restored %v, trained %v", i, c, gd[c], wd[c])
			}
		}
	}
}

// TestWeightsDoNotLeakIntoSource: Train must leave the caller's tuple
// weights untouched — reweighting happens on clones.
func TestWeightsDoNotLeakIntoSource(t *testing.T) {
	ds := spiralDataset(rand.New(rand.NewSource(19)), 90)
	if _, err := boost.Train(ds, boost.Config{Rounds: 6, TreeConfig: stumpConfig()}); err != nil {
		t.Fatal(err)
	}
	for i, tu := range ds.Tuples {
		if tu.Weight != 1 {
			t.Fatalf("tuple %d weight mutated to %v", i, tu.Weight)
		}
	}
}
