package eval

import (
	"math"
	"math/rand"
	"testing"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/pdf"
)

func TestPerClass(t *testing.T) {
	classes := []string{"A", "B"}
	confusion := [][]float64{
		{8, 2}, // true A: 8 right, 2 predicted B
		{1, 9}, // true B: 1 predicted A, 9 right
	}
	m, err := PerClass(classes, confusion)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0].Precision-8.0/9) > 1e-12 {
		t.Fatalf("precision A = %v", m[0].Precision)
	}
	if math.Abs(m[0].Recall-0.8) > 1e-12 {
		t.Fatalf("recall A = %v", m[0].Recall)
	}
	wantF1 := 2 * (8.0 / 9) * 0.8 / (8.0/9 + 0.8)
	if math.Abs(m[0].F1-wantF1) > 1e-12 {
		t.Fatalf("F1 A = %v, want %v", m[0].F1, wantF1)
	}
	if m[0].Support != 10 || m[1].Support != 10 {
		t.Fatalf("supports = %v %v", m[0].Support, m[1].Support)
	}
	macro := MacroF1(m)
	if macro <= 0 || macro > 1 {
		t.Fatalf("macro F1 = %v", macro)
	}
}

func TestPerClassDegenerate(t *testing.T) {
	// A class never predicted and never present: all metrics zero.
	m, err := PerClass([]string{"A", "B"}, [][]float64{{5, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m[1].Precision != 0 || m[1].Recall != 0 || m[1].F1 != 0 {
		t.Fatalf("empty class metrics = %+v", m[1])
	}
	if _, err := PerClass([]string{"A"}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("non-square confusion accepted")
	}
	if _, err := PerClass([]string{"A", "B"}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("short confusion accepted")
	}
	if MacroF1(nil) != 0 {
		t.Fatal("MacroF1(nil) != 0")
	}
}

func TestBrierAndLogLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := separableDataset(40, rng)
	f := mustFit(t, Tree(core.Config{}), ds)
	_, brier, ll := Evaluate(f, ds)
	// Separable data: near-perfect calibration.
	if brier > 0.05 {
		t.Fatalf("Brier = %v on separable data", brier)
	}
	if ll > 0.1 {
		t.Fatalf("log loss = %v on separable data", ll)
	}
	if _, brier, ll := Evaluate(f, ds.Subset(nil)); brier != 0 || ll != 0 {
		t.Fatal("empty-set scores should be zero")
	}
}

func TestLogLossFiniteOnWrongConfidentModel(t *testing.T) {
	// A handcrafted tree that assigns zero probability to class B.
	tree := &core.Tree{
		Classes:  []string{"A", "B"},
		NumAttrs: []data.Attribute{{Name: "x"}},
		Root:     &core.Node{Dist: []float64{1, 0}, W: 1, ClassW: []float64{1, 0}},
	}
	f, err := forest.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDataset("w", 1, []string{"A", "B"})
	ds.Add(1, pdf.Point(0)) // true class B gets probability 0
	_, b, ll := Evaluate(f, ds)
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("log loss should be clamped finite, got %v", ll)
	}
	if math.Abs(b-2) > 1e-12 {
		t.Fatalf("Brier of totally wrong confident prediction = %v, want 2", b)
	}
}

func TestTuneWidthFindsPlateau(t *testing.T) {
	// Point data perturbed with noise: tuning should not pick w = 0 when
	// a genuinely noisy attribute benefits from an error model.
	rng := rand.New(rand.NewSource(5))
	p := &data.Points{
		Name:    "tune",
		Attrs:   []string{"x"},
		Classes: []string{"a", "b"},
	}
	for i := 0; i < 60; i++ {
		class := i % 2
		v := float64(class) + rng.NormFloat64()*0.35 // heavy noise vs unit gap
		p.Rows = append(p.Rows, []float64{v})
		p.Labels = append(p.Labels, class)
	}
	bestW, points, err := TuneWidth(p, []float64{0.01, 0.1, 0.3}, 20, data.GaussianModel,
		core.Config{MinWeight: 2}, 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	if bestW < 0.01 || bestW > 0.3 {
		t.Fatalf("tuned w = %v outside candidate range", bestW)
	}
	for _, pt := range points {
		if pt.Mean < 0 || pt.Mean > 1 || pt.Runs != 3 {
			t.Fatalf("bad point %+v", pt)
		}
	}
}

func TestTuneWidthErrors(t *testing.T) {
	p := &data.Points{Name: "x", Attrs: []string{"a"}, Classes: []string{"c"},
		Rows: [][]float64{{1}}, Labels: []int{0}}
	rng := rand.New(rand.NewSource(1))
	if _, _, err := TuneWidth(p, nil, 10, data.GaussianModel, core.Config{}, 3, 3, rng); err == nil {
		t.Fatal("no candidates accepted")
	}
	if _, _, err := TuneWidth(p, []float64{0.1}, 10, data.GaussianModel, core.Config{}, 3, 1, rng); err == nil {
		t.Fatal("repeats=1 accepted")
	}
	if _, _, err := TuneWidth(p, []float64{0.1}, 10, data.GaussianModel, core.Config{}, 3, 3, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestMeanStdErr(t *testing.T) {
	mean, se := meanStdErr([]float64{2, 4, 6})
	if mean != 4 {
		t.Fatalf("mean = %v", mean)
	}
	want := 2.0 / math.Sqrt(3) // sample std 2, n=3
	if math.Abs(se-want) > 1e-12 {
		t.Fatalf("stderr = %v, want %v", se, want)
	}
	if m, s := meanStdErr([]float64{5}); m != 5 || s != 0 {
		t.Fatalf("single sample: %v %v", m, s)
	}
}
