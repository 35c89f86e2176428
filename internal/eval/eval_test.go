package eval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"udt/internal/boost"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/pdf"
)

func separableDataset(n int, rng *rand.Rand) *data.Dataset {
	ds := data.NewDataset("sep", 1, []string{"lo", "hi"})
	for i := 0; i < n; i++ {
		class := i % 2
		c := float64(class)*10 + rng.Float64()
		p, _ := pdf.Uniform(c-0.3, c+0.3, 5)
		ds.Add(class, p)
	}
	return ds
}

// forestDataset builds a separable two-attribute, three-class dataset.
func forestDataset(n int) *data.Dataset {
	ds := data.NewDataset("fe", 2, []string{"a", "b", "c"})
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < n; i++ {
		c := i % 3
		base := float64(c * 8)
		p1, _ := pdf.Uniform(base-1.5+rng.Float64(), base+1.5+rng.Float64(), 7)
		ds.Add(c, p1, pdf.Point(base+2*rng.Float64()))
	}
	return ds
}

// overlappingDataset is forestDataset(n) plus tuples whose pdfs span every
// class region, so no model predicts every tuple correctly and some
// distributions split their mass across classes.
func overlappingDataset(n int) *data.Dataset {
	ds := forestDataset(n)
	for i := 0; i < 12; i++ {
		p, _ := pdf.Uniform(-2, 18, 9)
		ds.Add(i%3, p, pdf.Point(float64(i)))
	}
	return ds
}

// mustFit trains a model or fails the test.
func mustFit(t testing.TB, fit Trainer, ds *data.Dataset) *forest.Forest {
	t.Helper()
	f, err := fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAccuracyPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := separableDataset(40, rng)
	f := mustFit(t, Tree(core.Config{}), ds)
	if acc := Accuracy(f, ds); acc != 1 {
		t.Fatalf("accuracy on separable data = %v", acc)
	}
	empty := ds.Subset(nil)
	if acc := Accuracy(f, empty); acc != 0 {
		t.Fatalf("accuracy on empty set = %v", acc)
	}
}

func TestConfusion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := separableDataset(20, rng)
	m := Confusion(mustFit(t, Tree(core.Config{}), ds), ds)
	if len(m) != 2 || len(m[0]) != 2 {
		t.Fatalf("confusion shape %dx%d", len(m), len(m[0]))
	}
	total := m[0][0] + m[0][1] + m[1][0] + m[1][1]
	if math.Abs(total-20) > 1e-9 {
		t.Fatalf("confusion total %v, want 20", total)
	}
	if m[0][0] != 10 || m[1][1] != 10 {
		t.Fatalf("separable data should give diagonal confusion, got %v", m)
	}
}

func TestTrainTest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := separableDataset(40, rng)
	test := separableDataset(20, rng)
	r, err := TrainTest(train, test, Tree(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy != 1 {
		t.Fatalf("accuracy = %v", r.Accuracy)
	}
	if r.Nodes == 0 || r.Leaves == 0 || r.Depth == 0 {
		t.Fatalf("tree stats missing: %+v", r)
	}
	if r.Search.EntropyCalcs() == 0 {
		t.Fatal("no search work recorded")
	}
}

func TestTrainTestAveraging(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := separableDataset(40, rng)
	test := separableDataset(20, rng)
	r, err := TrainTest(train, test, Averaging(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy != 1 {
		t.Fatalf("AVG accuracy on separable data = %v", r.Accuracy)
	}
}

func TestCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := separableDataset(50, rng)
	r, err := CrossValidate(ds, 5, Tree(core.Config{}), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy < 0.95 {
		t.Fatalf("CV accuracy = %v", r.Accuracy)
	}
	if r.Nodes == 0 {
		t.Fatal("pooled stats missing")
	}
	if _, err := CrossValidate(ds, 5, Tree(core.Config{}), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := CrossValidate(ds, 1, Tree(core.Config{}), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestCrossValidateAveraging(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := separableDataset(50, rng)
	r, err := CrossValidate(ds, 5, Averaging(core.Config{}), rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy < 0.95 {
		t.Fatalf("AVG CV accuracy = %v", r.Accuracy)
	}
}

// TestUDTBeatsAVGOnMeanAliasedData is the paper's central accuracy claim in
// miniature: when the means collide but the distributions differ, only the
// distribution-based tree separates the classes.
func TestUDTBeatsAVGOnMeanAliasedData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := data.NewDataset("aliased", 1, []string{"A", "B"})
	for i := 0; i < 60; i++ {
		// Class A: mass at {-1, +1}; class B: mass at {-3, +3}. Same mean 0.
		jitter := rng.Float64() * 0.1
		if i%2 == 0 {
			ds.Add(0, pdf.MustNew([]float64{-1 - jitter, 1 + jitter}, []float64{1, 1}))
		} else {
			ds.Add(1, pdf.MustNew([]float64{-3 - jitter, 3 + jitter}, []float64{1, 1}))
		}
	}
	cfg := core.Config{MinWeight: 1}
	avg, err := CrossValidate(ds, 5, Averaging(cfg), rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	udt, err := CrossValidate(ds, 5, Tree(cfg), rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if udt.Accuracy <= avg.Accuracy {
		t.Fatalf("UDT (%v) should beat AVG (%v) on mean-aliased data", udt.Accuracy, avg.Accuracy)
	}
	if udt.Accuracy < 0.9 {
		t.Fatalf("UDT accuracy = %v, want >= 0.9", udt.Accuracy)
	}
}

// TestForestTrainTest: the result must carry aggregate member statistics and
// a sane accuracy on separable data.
func TestForestTrainTest(t *testing.T) {
	ds := forestDataset(120)
	rng := rand.New(rand.NewSource(5))
	train, test := ds.Split(0.7, rng)
	r, err := TrainTest(train, test, Bagged(forest.Config{Trees: 9, Seed: 2, TreeConfig: core.Config{MinWeight: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy < 0.8 {
		t.Fatalf("forest train/test accuracy %v too low for separable data", r.Accuracy)
	}
	if r.Nodes < 9 || r.Leaves < 9 || r.Depth < 1 {
		t.Fatalf("missing aggregate stats: %+v", r)
	}
	if len(r.Confusion) != len(ds.Classes) {
		t.Fatalf("confusion matrix has %d rows", len(r.Confusion))
	}
}

// TestForestCrossValidate: a bagged ensemble runs the same pooled protocol,
// errors surfaced.
func TestForestCrossValidate(t *testing.T) {
	ds := forestDataset(90)
	fit := Bagged(forest.Config{Trees: 5, Seed: 1, TreeConfig: core.Config{MinWeight: 1}})
	r, err := CrossValidate(ds, 3, fit, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy <= 0.5 || r.Accuracy > 1 {
		t.Fatalf("pooled CV accuracy %v implausible", r.Accuracy)
	}
	if _, err := CrossValidate(ds, 3, fit, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestEvalCompiledPathMatchesRecursive pins Accuracy, Confusion and
// Evaluate on a tree-kind model, which classify the test set in one compiled
// batch, to the recursive Tree.Predict and Tree.Classify, bit for bit, for
// trees built with any worker count and for serial and parallel batches.
func TestEvalCompiledPathMatchesRecursive(t *testing.T) {
	ds := overlappingDataset(90)
	for _, workers := range []int{0, 1, 4} {
		tree, err := core.Build(ds, core.Config{MinWeight: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		f, err := forest.FromTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Kind(); got != forest.KindTree {
			t.Fatalf("FromTree made a %s model", got)
		}
		checkMetricsPerTuple(t, fmt.Sprintf("tree, workers=%d", workers), f, ds, tree.Predict, tree.Classify)
	}
}

// TestForestMetricsAgainstManual pins Accuracy, Confusion and Evaluate on
// bagged and boosted models to per-tuple Forest.Predict and Forest.Classify,
// bit for bit, for serial and parallel batches.
func TestForestMetricsAgainstManual(t *testing.T) {
	ds := overlappingDataset(90)
	for _, m := range []struct {
		kind string
		fit  Trainer
	}{
		{forest.KindBagged, Bagged(forest.Config{Trees: 7, Seed: 3, Workers: 4, TreeConfig: core.Config{MinWeight: 1}})},
		{forest.KindBoosted, Boosted(boost.Config{Rounds: 6, TreeConfig: core.Config{MaxDepth: 2, MinWeight: 2}})},
	} {
		f := mustFit(t, m.fit, ds)
		if got := f.Kind(); got != m.kind {
			t.Fatalf("trained a %s model, want %s", got, m.kind)
		}
		checkMetricsPerTuple(t, m.kind, f, ds, f.Predict, f.Classify)
	}
}

// checkMetricsPerTuple recomputes accuracy, the confusion matrix, Brier and
// log-loss of f on ds from the per-tuple predict and classify, and fails
// unless Accuracy, Confusion and Evaluate equal them exactly at GOMAXPROCS 1
// and 4. It also fails when f predicts every tuple correctly, since such a
// fixture cannot tell predictions apart.
func checkMetricsPerTuple(t *testing.T, name string, f *forest.Forest, ds *data.Dataset,
	predict func(*data.Tuple) int, classify func(*data.Tuple) []float64) {
	t.Helper()
	correct := 0
	conf := make([][]float64, len(ds.Classes))
	for i := range conf {
		conf[i] = make([]float64, len(ds.Classes))
	}
	var brier, logLoss float64
	for _, tu := range ds.Tuples {
		pred := predict(tu)
		if pred == tu.Class {
			correct++
		}
		conf[tu.Class][pred] += tu.Weight
		dist := classify(tu)
		for c, p := range dist {
			target := 0.0
			if c == tu.Class {
				target = 1
			}
			brier += (p - target) * (p - target)
		}
		logLoss -= math.Log(math.Max(dist[tu.Class], 1e-15))
	}
	n := float64(ds.Len())
	acc, brier, logLoss := float64(correct)/n, brier/n, logLoss/n
	if correct == ds.Len() {
		t.Fatalf("%s: every tuple correct; the fixture cannot tell predictions apart", name)
	}

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		gotAcc, gotConf := Accuracy(f, ds), Confusion(f, ds)
		econf, ebrier, elog := Evaluate(f, ds)
		runtime.GOMAXPROCS(prev)
		if gotAcc != acc {
			t.Errorf("%s, %d procs: Accuracy %v, per tuple %v", name, procs, gotAcc, acc)
		}
		if !slices.EqualFunc(gotConf, conf, slices.Equal) || !slices.EqualFunc(econf, conf, slices.Equal) {
			t.Errorf("%s, %d procs: Confusion %v, Evaluate %v, per tuple %v", name, procs, gotConf, econf, conf)
		}
		if ebrier != brier || elog != logLoss {
			t.Errorf("%s, %d procs: Evaluate scores (%v, %v), per tuple (%v, %v)", name, procs, ebrier, elog, brier, logLoss)
		}
	}
}

// TestCrossValidateFoldsIdentical: the folds depend on the dataset, k and
// the rng alone, which is what lets the experiments compare model kinds on
// identical folds. Runs from one seed with different trainers each hand
// their trainer the training folds of the reference deal
// (StratifiedKFold from that seed), tuple for tuple and in order, and score
// its test folds: the pooled accuracy equals the one recomputed over the
// reference test folds with the models the run trained.
func TestCrossValidateFoldsIdentical(t *testing.T) {
	ds := overlappingDataset(60)
	const k, seed = 4, 12
	ref, err := ds.StratifiedKFold(k, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{MinWeight: 1}
	trainers := map[string]Trainer{
		"tree":      Tree(cfg),
		"averaging": Averaging(cfg),
		"bagged":    Bagged(forest.Config{Trees: 3, Seed: 4, TreeConfig: cfg}),
		"boosted":   Boosted(boost.Config{Rounds: 3, TreeConfig: core.Config{MaxDepth: 2, MinWeight: 2}}),
	}
	for _, name := range []string{"tree", "averaging", "bagged", "boosted"} {
		var seen [][]*data.Tuple
		var models []*forest.Forest
		record := func(train *data.Dataset) (*forest.Forest, error) {
			seen = append(seen, train.Tuples)
			f, err := trainers[name](train)
			models = append(models, f)
			return f, err
		}
		r, err := CrossValidate(ds, k, record, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != k {
			t.Fatalf("%s: trainer called %d times, want %d", name, len(seen), k)
		}
		var correctW, totalW float64
		for i, f := range ref {
			if !slices.Equal(seen[i], f.Train.Tuples) {
				t.Fatalf("%s: fold %d trained on other tuples than the reference deal", name, i)
			}
			correctW += Accuracy(models[i], f.Test) * float64(f.Test.Len())
			totalW += float64(f.Test.Len())
		}
		if want := correctW / totalW; r.Accuracy != want {
			t.Errorf("%s: pooled accuracy %v, recomputed on the reference test folds %v", name, r.Accuracy, want)
		}
	}
}
