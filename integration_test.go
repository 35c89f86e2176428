package udt_test

// End-to-end integration tests: synthetic UCI stand-in -> uncertainty
// injection -> construction under every strategy/measure -> evaluation,
// exercising the same pipeline as the paper's experiments through the
// internal packages the way cmd/udtbench does.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"udt"
	"udt/internal/data"
	"udt/internal/uci"
)

func TestIntegrationInjectedPipeline(t *testing.T) {
	spec, err := uci.ByName("Iris")
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := uci.Points(spec, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := udt.Inject(pts, udt.InjectConfig{W: 0.15, S: 30, Model: udt.GaussianModel})
	if err != nil {
		t.Fatal(err)
	}

	// Every (strategy, measure) combination builds, beats chance and
	// agrees with the exhaustive search of the same measure.
	for _, m := range []udt.Measure{udt.Entropy, udt.Gini, udt.GainRatio} {
		ref, err := udt.Build(ds, udt.Config{Measure: m, Strategy: udt.StrategyUDT})
		if err != nil {
			t.Fatalf("measure %v: %v", m, err)
		}
		for _, st := range []udt.Strategy{udt.StrategyBP, udt.StrategyLP, udt.StrategyGP, udt.StrategyES} {
			tree, err := udt.Build(ds, udt.Config{Measure: m, Strategy: st})
			if err != nil {
				t.Fatalf("%v/%v: %v", m, st, err)
			}
			for _, tu := range ds.Tuples {
				a, b := ref.Classify(tu), tree.Classify(tu)
				for c := range a {
					if math.Abs(a[c]-b[c]) > 1e-9 {
						t.Fatalf("%v/%v: classification diverges from exhaustive", m, st)
					}
				}
			}
			model, err := udt.TreeModel(tree)
			if err != nil {
				t.Fatal(err)
			}
			if acc := udt.Accuracy(model, ds); acc < 0.8 {
				t.Fatalf("%v/%v: accuracy %v", m, st, acc)
			}
		}
	}
}

func TestIntegrationRawPipeline(t *testing.T) {
	spec, err := uci.ByName("JapaneseVowel")
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := uci.Raw(spec, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := udt.Config{Strategy: udt.StrategyES, PostPrune: true}
	avg, err := udt.TrainTest(train, test, udt.AveragingTrainer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := udt.TrainTest(train, test, udt.TreeTrainer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central claim on its raw-measurement dataset.
	if dist.Accuracy <= avg.Accuracy {
		t.Fatalf("UDT (%v) should beat AVG (%v) on raw-sample data", dist.Accuracy, avg.Accuracy)
	}
}

func TestIntegrationCSVExchange(t *testing.T) {
	// Generate -> serialise -> parse -> train -> evaluate, the udtgen |
	// udtree workflow.
	spec, err := uci.ByName("Glass")
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := uci.Points(spec, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := udt.Inject(pts, udt.InjectConfig{W: 0.1, S: 12, Model: udt.UniformModel})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := udt.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := udt.ReadCSV(&buf, "glass")
	if err != nil {
		t.Fatal(err)
	}
	treeA, err := udt.Build(ds, udt.Config{Strategy: udt.StrategyGP})
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := udt.Build(back, udt.Config{Strategy: udt.StrategyGP})
	if err != nil {
		t.Fatal(err)
	}
	if treeA.Stats.Nodes != treeB.Stats.Nodes {
		t.Fatalf("CSV round trip changed the model: %d vs %d nodes",
			treeA.Stats.Nodes, treeB.Stats.Nodes)
	}
}

func TestIntegrationMixedAttributes(t *testing.T) {
	// Numeric pdfs + categorical distributions + missing values in one
	// dataset, built in parallel with post-pruning — the kitchen sink.
	rng := rand.New(rand.NewSource(13))
	ds := udt.NewDataset("mixed", 2, []string{"no", "yes"})
	ds.CatAttrs = []udt.Attribute{{Name: "region", Domain: []string{"n", "s", "e", "w"}}}
	for i := 0; i < 160; i++ {
		class := i % 2
		var p0, p1 *udt.PDF
		if rng.Float64() > 0.1 {
			c := float64(class)*3 + rng.NormFloat64()
			p0, _ = udt.GaussianPDF(c, 0.4, c-1, c+1, 15)
		}
		p1 = udt.PointPDF(rng.Float64())
		cat := make(udt.CatDist, 4)
		cat[rng.Intn(4)] = 0.7
		cat[(class+rng.Intn(2))%4] += 0.3
		if err := cat.Normalize(); err != nil {
			t.Fatal(err)
		}
		tu := &udt.Tuple{Num: []*udt.PDF{p0, p1}, Cat: []udt.CatDist{cat}, Class: class, Weight: 1}
		ds.Tuples = append(ds.Tuples, tu)
	}
	filled, err := udt.FillMissing(ds)
	if err != nil {
		t.Fatal(err)
	}
	model, err := udt.TreeTrainer(udt.Config{
		Strategy:    udt.StrategyES,
		PostPrune:   true,
		Parallelism: 4,
	})(filled)
	if err != nil {
		t.Fatal(err)
	}
	if acc := udt.Accuracy(model, filled); acc < 0.85 {
		t.Fatalf("mixed-attribute accuracy = %v", acc)
	}
	if _, brier, _ := udt.Evaluate(model, filled); brier > 0.3 {
		t.Fatalf("Brier = %v", brier)
	}
}

// TestIntegrationEfficiencyHierarchy pins the paper's §6 ordering on a
// mid-size injected dataset end to end.
func TestIntegrationEfficiencyHierarchy(t *testing.T) {
	spec, err := uci.ByName("Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := uci.Points(spec, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.Inject(pts, data.InjectConfig{W: 0.1, S: 40, Model: data.GaussianModel})
	if err != nil {
		t.Fatal(err)
	}
	calcs := map[udt.Strategy]int64{}
	for _, st := range []udt.Strategy{udt.StrategyUDT, udt.StrategyBP, udt.StrategyLP, udt.StrategyGP, udt.StrategyES} {
		tree, err := udt.Build(ds, udt.Config{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		calcs[st] = tree.Stats.Search.EntropyCalcs()
	}
	if !(calcs[udt.StrategyBP] <= calcs[udt.StrategyUDT] &&
		calcs[udt.StrategyLP] <= calcs[udt.StrategyBP] &&
		calcs[udt.StrategyGP] <= calcs[udt.StrategyLP]) {
		t.Fatalf("pruning hierarchy violated: %v", calcs)
	}
	if calcs[udt.StrategyES] > calcs[udt.StrategyUDT]/2 {
		t.Fatalf("ES saved too little: %d vs UDT %d", calcs[udt.StrategyES], calcs[udt.StrategyUDT])
	}
}
