package udt_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"udt"
)

// exampleDataset builds a small two-class dataset through the public API.
func exampleDataset(t testing.TB, n int) *udt.Dataset {
	t.Helper()
	ds := udt.NewDataset("api", 2, []string{"neg", "pos"})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < n; i++ {
		class := i % 2
		c := float64(class)*4 + rng.NormFloat64()*0.5
		p1, err := udt.GaussianPDF(c, 0.25, c-0.5, c+0.5, 30)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := udt.UniformPDF(c-0.2, c+0.2, 10)
		if err != nil {
			t.Fatal(err)
		}
		ds.Add(class, p1, p2)
	}
	return ds
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := exampleDataset(t, 60)
	tree, err := udt.Build(ds, udt.Config{Strategy: udt.StrategyES, PostPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	model, err := udt.TreeModel(tree)
	if err != nil {
		t.Fatal(err)
	}
	if acc := udt.Accuracy(model, ds); acc < 0.95 {
		t.Fatalf("accuracy = %v", acc)
	}
	dist := tree.Classify(ds.Tuples[0])
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("classification distribution sums to %v", sum)
	}
	if len(tree.Rules()) == 0 {
		t.Fatal("no rules extracted")
	}
}

func TestPublicAPIAveraging(t *testing.T) {
	ds := exampleDataset(t, 40)
	avg, err := udt.AveragingTrainer(udt.Config{})(ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc := udt.Accuracy(avg, ds); acc < 0.9 {
		t.Fatalf("AVG accuracy = %v", acc)
	}
}

func TestPublicAPICrossValidate(t *testing.T) {
	ds := exampleDataset(t, 50)
	r, err := udt.CrossValidate(ds, 5, udt.TreeTrainer(udt.Config{Strategy: udt.StrategyGP}), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy < 0.9 {
		t.Fatalf("CV accuracy = %v", r.Accuracy)
	}
	if r.Search.EntropyCalcs() == 0 {
		t.Fatal("search stats not surfaced")
	}
}

func TestPublicAPIMeasures(t *testing.T) {
	ds := exampleDataset(t, 40)
	for _, m := range []udt.Measure{udt.Entropy, udt.Gini, udt.GainRatio} {
		model, err := udt.TreeTrainer(udt.Config{Measure: m, Strategy: udt.StrategyGP})(ds)
		if err != nil {
			t.Fatalf("measure %v: %v", m, err)
		}
		if acc := udt.Accuracy(model, ds); acc < 0.9 {
			t.Fatalf("measure %v accuracy = %v", m, acc)
		}
	}
}

func TestPublicAPIInject(t *testing.T) {
	pts := &udt.Points{
		Name:    "pts",
		Attrs:   []string{"x"},
		Classes: []string{"a", "b"},
		Rows:    [][]float64{{0}, {10}, {1}, {11}},
		Labels:  []int{0, 1, 0, 1},
	}
	ds, err := udt.Inject(pts, udt.InjectConfig{W: 0.1, S: 25, Model: udt.GaussianModel})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 4 {
		t.Fatalf("injected %d tuples", ds.Len())
	}
	if ds.Tuples[0].Num[0].NumSamples() != 25 {
		t.Fatalf("pdf has %d samples", ds.Tuples[0].Num[0].NumSamples())
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	ds := exampleDataset(t, 10)
	var buf bytes.Buffer
	if err := udt.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := udt.ReadCSV(&buf, "api")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("round trip lost tuples")
	}
}

func TestPublicAPIPDFHelpers(t *testing.T) {
	p, err := udt.NewPDF([]float64{1, 2, 3}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean()-2) > 1e-12 {
		t.Fatalf("mean = %v", p.Mean())
	}
	if udt.PointPDF(5).Mean() != 5 {
		t.Fatal("PointPDF broken")
	}
	raw, err := udt.PDFFromSamples([]float64{36.5, 36.7, 36.6})
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumSamples() != 3 {
		t.Fatal("PDFFromSamples broken")
	}
	if udt.NewCatPoint(1, 3).Mode() != 1 {
		t.Fatal("NewCatPoint broken")
	}
}

// TestPublicAPITrainTestAndConfusion runs the train/test protocol with every
// model kind's trainer.
func TestPublicAPITrainTestAndConfusion(t *testing.T) {
	train := exampleDataset(t, 60)
	test := exampleDataset(t, 30)
	cfg := udt.Config{Strategy: udt.StrategyES}
	for _, fit := range []udt.Trainer{
		udt.TreeTrainer(cfg),
		udt.AveragingTrainer(cfg),
		udt.BaggedTrainer(udt.ForestConfig{Trees: 5, Seed: 1, TreeConfig: cfg}),
		udt.BoostedTrainer(udt.BoostConfig{Rounds: 3, TreeConfig: cfg}),
	} {
		r, err := udt.TrainTest(train, test, fit)
		if err != nil {
			t.Fatal(err)
		}
		if r.Accuracy < 0.9 {
			t.Fatalf("accuracy = %v", r.Accuracy)
		}
	}
	model, err := udt.TreeTrainer(udt.Config{})(train)
	if err != nil {
		t.Fatal(err)
	}
	m := udt.Confusion(model, test)
	total := 0.0
	for _, row := range m {
		for _, v := range row {
			total += v
		}
	}
	if math.Abs(total-float64(test.Len())) > 1e-9 {
		t.Fatalf("confusion total = %v", total)
	}
}
