// Package experiments contains one driver per table/figure of the paper's
// evaluation (README.md, "Reproducing the paper", indexes them). Each
// driver returns structured rows and can render them in the layout the
// paper reports, so the cmd/udtbench harness and the repository benchmarks
// regenerate every artefact.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/eval"
	"udt/internal/forest"
	"udt/internal/obs"
	"udt/internal/split"
	"udt/internal/uci"
)

// Options parameterises all experiment drivers.
type Options struct {
	Scale    float64  // dataset size scale in (0,1]; 1 = Table 2 sizes
	S        int      // sample points per pdf (paper default 100)
	W        float64  // pdf width fraction of attribute range (default 0.1)
	Seed     int64    // base RNG seed
	Folds    int      // cross-validation folds for datasets without test sets (default 10)
	Datasets []string // restrict to these dataset names; nil = all
	Measure  split.Measure
	MaxDepth int // optional tree depth cap to bound experiment cost

	Parallelism int // concurrent subtree builds; <= 1 means serial
	Workers     int // intra-node split-search workers; <= 1 means serial

	// Progress, when non-nil, observes every tree build an experiment runs
	// (udtbench -progress). Observational only — results are unchanged.
	Progress *obs.ProgressHook
}

// withDefaults fills the paper's default parameters.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.S <= 0 {
		o.S = 100
	}
	if o.W <= 0 {
		o.W = 0.10
	}
	if o.Folds < 2 {
		o.Folds = 10
	}
	return o
}

// wants reports whether the dataset is selected.
func (o Options) wants(name string) bool {
	if len(o.Datasets) == 0 {
		return true
	}
	for _, d := range o.Datasets {
		if d == name {
			return true
		}
	}
	return false
}

// treeConfig is the tree construction configuration shared by experiments:
// the paper's C4.5 framework with pre- and post-pruning (footnote 3).
func (o Options) treeConfig(strategy split.Strategy) core.Config {
	return core.Config{
		Measure:     o.Measure,
		Strategy:    strategy,
		PostPrune:   true,
		MaxDepth:    o.MaxDepth,
		Parallelism: o.Parallelism,
		Workers:     o.Workers,
		Progress:    o.Progress,
	}
}

// loadInjected generates the spec's point data and injects uncertainty.
// test is nil when the spec prescribes cross-validation.
func loadInjected(spec uci.Spec, o Options, w float64, model data.ErrorModel) (train, test *data.Dataset, err error) {
	if spec.RawSamples {
		return uci.Raw(spec, o.Scale, o.Seed)
	}
	ptsTrain, ptsTest, err := uci.Points(spec, o.Scale, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := data.InjectConfig{W: w, S: o.S, Model: model}
	if train, err = data.Inject(ptsTrain, cfg); err != nil {
		return nil, nil, err
	}
	if ptsTest != nil {
		if test, err = data.Inject(ptsTest, cfg); err != nil {
			return nil, nil, err
		}
	}
	return train, test, nil
}

// protocol runs the spec's evaluation protocol for one trainer: train/test
// when the spec has a test split, else k-fold CV with folds dealt from seed,
// so every trainer run from the same seed sees identical folds.
func (o Options) protocol(train, test *data.Dataset, seed int64, fit eval.Trainer) (eval.Result, error) {
	if test != nil {
		return eval.TrainTest(train, test, fit)
	}
	return eval.CrossValidate(train, o.Folds, fit, rand.New(rand.NewSource(seed)))
}

// evaluate runs the spec's protocol for both the AVG baseline and the UDT
// tree.
func evaluate(train, test *data.Dataset, o Options, strategy split.Strategy) (avg, udt eval.Result, err error) {
	cfg := o.treeConfig(strategy)
	if avg, err = o.protocol(train, test, o.Seed+1, eval.Averaging(cfg)); err != nil {
		return
	}
	udt, err = o.protocol(train, test, o.Seed+1, eval.Tree(cfg))
	return
}

// ---------------------------------------------------------------------------
// E2 — Table 2: dataset inventory.

// DatasetRow describes one Table 2 entry at the chosen scale.
type DatasetRow struct {
	Name     string
	Train    int
	Test     int
	Attrs    int
	Classes  int
	Protocol string
}

// DatasetTable reproduces Table 2 for the generated stand-ins.
func DatasetTable(o Options) []DatasetRow {
	o = o.withDefaults()
	var rows []DatasetRow
	for _, spec := range uci.Specs {
		if !o.wants(spec.Name) {
			continue
		}
		protocol := "train/test"
		if spec.Test == 0 {
			protocol = fmt.Sprintf("%d-fold CV", o.Folds)
		}
		rows = append(rows, DatasetRow{
			Name:     spec.Name,
			Train:    spec.Train,
			Test:     spec.Test,
			Attrs:    spec.Attrs,
			Classes:  spec.Classes,
			Protocol: protocol,
		})
	}
	return rows
}

// FprintDatasetTable renders Table 2.
func FprintDatasetTable(w io.Writer, rows []DatasetRow) {
	fmt.Fprintf(w, "%-15s %8s %8s %6s %8s  %s\n", "dataset", "train", "test", "attrs", "classes", "protocol")
	for _, r := range rows {
		test := "-"
		if r.Test > 0 {
			test = fmt.Sprint(r.Test)
		}
		fmt.Fprintf(w, "%-15s %8d %8s %6d %8d  %s\n", r.Name, r.Train, test, r.Attrs, r.Classes, r.Protocol)
	}
}

// ---------------------------------------------------------------------------
// E3 — Table 3: accuracy of AVG vs UDT across error models and widths.

// AccuracyRow is one (dataset, error model, w) cell of Table 3.
type AccuracyRow struct {
	Dataset string
	Model   data.ErrorModel
	W       float64 // 0 for the raw-sample dataset (uncertainty not synthetic)
	AVG     float64
	UDT     float64
	Raw     bool
}

// AccuracyTable reproduces Table 3: for every dataset, the AVG baseline and
// the UDT accuracy under Gaussian error models for each width in ws, plus
// uniform models for the integer-domain datasets (PenDigits, Vehicle,
// Satellite), and the raw-measurement JapaneseVowel row.
func AccuracyTable(o Options, ws []float64) ([]AccuracyRow, error) {
	o = o.withDefaults()
	if len(ws) == 0 {
		ws = []float64{0.01, 0.02, 0.05, 0.10, 0.20}
	}
	var rows []AccuracyRow
	for _, spec := range uci.Specs {
		if !o.wants(spec.Name) {
			continue
		}
		if spec.RawSamples {
			train, test, err := loadInjected(spec, o, 0, data.GaussianModel)
			if err != nil {
				return nil, err
			}
			avg, udt, err := evaluate(train, test, o, split.ES)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AccuracyRow{Dataset: spec.Name, AVG: avg.Accuracy, UDT: udt.Accuracy, Raw: true})
			continue
		}
		models := []data.ErrorModel{data.GaussianModel}
		if spec.Integer {
			models = append(models, data.UniformModel)
		}
		for _, model := range models {
			for _, w := range ws {
				train, test, err := loadInjected(spec, o, w, model)
				if err != nil {
					return nil, err
				}
				avg, udt, err := evaluate(train, test, o, split.ES)
				if err != nil {
					return nil, err
				}
				rows = append(rows, AccuracyRow{
					Dataset: spec.Name, Model: model, W: w,
					AVG: avg.Accuracy, UDT: udt.Accuracy,
				})
			}
		}
	}
	return rows, nil
}

// FprintAccuracyTable renders Table 3: one line per (dataset, model, w)
// with the best UDT width starred per dataset/model group.
func FprintAccuracyTable(w io.Writer, rows []AccuracyRow) {
	fmt.Fprintf(w, "%-15s %-9s %6s %9s %9s %7s\n", "dataset", "model", "w", "AVG", "UDT", "delta")
	best := map[string]float64{}
	for _, r := range rows {
		key := r.Dataset + "/" + r.Model.String()
		if r.UDT > best[key] {
			best[key] = r.UDT
		}
	}
	for _, r := range rows {
		mark := " "
		if best[r.Dataset+"/"+r.Model.String()] == r.UDT {
			mark = "*"
		}
		wcol := fmt.Sprintf("%.0f%%", r.W*100)
		model := r.Model.String()
		if r.Raw {
			wcol, model = "raw", "samples"
		}
		fmt.Fprintf(w, "%-15s %-9s %6s %8.2f%% %8.2f%%%s %+6.2f%%\n",
			r.Dataset, model, wcol, r.AVG*100, r.UDT*100, mark, (r.UDT-r.AVG)*100)
	}
}

// ---------------------------------------------------------------------------
// E4 — Fig 4: controlled noise and the error-model hypothesis (Eq. 2).

// NoisePoint is one point of a Fig 4 curve: accuracy of the tree built with
// uncertainty width W on data perturbed with noise level U. W = 0 is the
// AVG baseline of the figure.
type NoisePoint struct {
	U, W     float64
	Accuracy float64
	Model    bool // point on the Eq. (2) "model" curve
}

// NoiseModel reproduces Fig 4 on the named dataset: for each perturbation
// level u, the point data is perturbed with Gaussian noise of deviation
// u·|A_j|/4 and then uncertainty of width w is injected; UDT accuracy is
// reported for every (u, w). Finally the Eq. (2) model curve
// w² = w₀² + u² is traced using the best width at u = 0 as w₀.
func NoiseModel(o Options, dataset string, us, ws []float64) ([]NoisePoint, error) {
	o = o.withDefaults()
	spec, err := uci.ByName(dataset)
	if err != nil {
		return nil, err
	}
	if spec.RawSamples {
		return nil, fmt.Errorf("experiments: %s carries raw uncertainty; Fig 4 excludes it", dataset)
	}
	if len(us) == 0 {
		us = []float64{0, 0.025, 0.05, 0.10}
	}
	if len(ws) == 0 {
		ws = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20}
	}
	ptsTrain, ptsTest, err := uci.Points(spec, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	run := func(u, w float64) (float64, error) {
		rng := rand.New(rand.NewSource(o.Seed + int64(u*10000)))
		train := ptsTrain.Perturb(u, rng)
		var test *data.Points
		if ptsTest != nil {
			test = ptsTest.Perturb(u, rng)
		}
		cfgInj := data.InjectConfig{W: w, S: o.S, Model: data.GaussianModel}
		trainDS, err := data.Inject(train, cfgInj)
		if err != nil {
			return 0, err
		}
		var testDS *data.Dataset
		if test != nil {
			if testDS, err = data.Inject(test, cfgInj); err != nil {
				return 0, err
			}
		}
		r, err := o.protocol(trainDS, testDS, o.Seed+7, eval.Tree(o.treeConfig(split.ES)))
		return r.Accuracy, err
	}
	var points []NoisePoint
	bestW0, bestAcc0 := 0.0, -1.0
	for _, u := range us {
		for _, w := range ws {
			acc, err := run(u, w)
			if err != nil {
				return nil, err
			}
			points = append(points, NoisePoint{U: u, W: w, Accuracy: acc})
			if u == 0 && acc > bestAcc0 {
				bestAcc0, bestW0 = acc, w
			}
		}
	}
	// Model curve: w(u) = sqrt(w0² + u²) per Eq. (2).
	for _, u := range us {
		wModel := sqrtSum(bestW0, u)
		acc, err := run(u, wModel)
		if err != nil {
			return nil, err
		}
		points = append(points, NoisePoint{U: u, W: wModel, Accuracy: acc, Model: true})
	}
	return points, nil
}

// sqrtSum returns sqrt(a² + b²), the Eq. (2) width combination.
func sqrtSum(a, b float64) float64 {
	return math.Hypot(a, b)
}

// FprintNoiseModel renders the Fig 4 series grouped by u.
func FprintNoiseModel(w io.Writer, points []NoisePoint) {
	fmt.Fprintf(w, "%6s %8s %9s %s\n", "u", "w", "accuracy", "curve")
	for _, p := range points {
		curve := fmt.Sprintf("u=%.1f%%", p.U*100)
		if p.Model {
			curve = "model"
		}
		fmt.Fprintf(w, "%5.1f%% %7.1f%% %8.2f%% %s\n", p.U*100, p.W*100, p.Accuracy*100, curve)
	}
}

// ---------------------------------------------------------------------------
// E5/E6 — Figs 6-7: execution time and pruning effectiveness.

// Algorithms lists the six bars of Figs 6-7 in the paper's order.
var Algorithms = []string{"AVG", "UDT", "UDT-BP", "UDT-LP", "UDT-GP", "UDT-ES"}

// EfficiencyRow is one bar: construction cost of one algorithm on one
// dataset.
type EfficiencyRow struct {
	Dataset      string
	Algorithm    string
	BuildTime    time.Duration
	EntropyCalcs int64 // split evaluations + bound computations (§6.2)
}

// Efficiency reproduces Figs 6 and 7: every dataset × {AVG, UDT, UDT-BP,
// UDT-LP, UDT-GP, UDT-ES}, recording wall-clock build time and the number
// of entropy calculations. Uncertainty: Gaussian, w = Options.W, s =
// Options.S (the paper's baseline w=10%, s=100).
func Efficiency(o Options) ([]EfficiencyRow, error) {
	o = o.withDefaults()
	var rows []EfficiencyRow
	for _, spec := range uci.Specs {
		if !o.wants(spec.Name) {
			continue
		}
		train, _, err := loadInjected(spec, o, o.W, data.GaussianModel)
		if err != nil {
			return nil, err
		}
		for _, algo := range Algorithms {
			var (
				tree *core.Tree
				err  error
			)
			start := time.Now()
			switch algo {
			case "AVG":
				tree, err = core.BuildAveraging(train, o.treeConfig(split.UDT))
			default:
				tree, err = core.Build(train, o.treeConfig(strategyOf(algo)))
			}
			if err != nil {
				return nil, err
			}
			rows = append(rows, EfficiencyRow{
				Dataset:      spec.Name,
				Algorithm:    algo,
				BuildTime:    time.Since(start),
				EntropyCalcs: tree.Stats.Search.EntropyCalcs(),
			})
		}
	}
	return rows, nil
}

func strategyOf(algo string) split.Strategy {
	switch algo {
	case "UDT-BP":
		return split.BP
	case "UDT-LP":
		return split.LP
	case "UDT-GP":
		return split.GP
	case "UDT-ES":
		return split.ES
	default:
		return split.UDT
	}
}

// FprintEfficiency renders Fig 6 (seconds) and Fig 7 (entropy
// calculations) side by side.
func FprintEfficiency(w io.Writer, rows []EfficiencyRow) {
	fmt.Fprintf(w, "%-15s %-8s %12s %15s %9s\n", "dataset", "algo", "build", "entropy calcs", "vs UDT")
	base := map[string]int64{}
	for _, r := range rows {
		if r.Algorithm == "UDT" {
			base[r.Dataset] = r.EntropyCalcs
		}
	}
	for _, r := range rows {
		rel := "-"
		if b := base[r.Dataset]; b > 0 && r.Algorithm != "AVG" {
			rel = fmt.Sprintf("%.2f%%", float64(r.EntropyCalcs)/float64(b)*100)
		}
		fmt.Fprintf(w, "%-15s %-8s %12s %15d %9s\n",
			r.Dataset, r.Algorithm, r.BuildTime.Round(time.Microsecond), r.EntropyCalcs, rel)
	}
}

// ---------------------------------------------------------------------------
// E7/E8 — Figs 8-9: sensitivity of UDT-ES to s and w.

// SweepPoint is one point of a Fig 8/9 curve.
type SweepPoint struct {
	Dataset      string
	X            float64 // s (Fig 8) or w (Fig 9)
	BuildTime    time.Duration
	EntropyCalcs int64
}

// SSweep reproduces Fig 8: UDT-ES build time as the pdf sample count s
// varies (the raw-sample dataset is excluded as in the paper).
func SSweep(o Options, ss []int) ([]SweepPoint, error) {
	o = o.withDefaults()
	if len(ss) == 0 {
		ss = []int{50, 100, 150, 200}
	}
	var points []SweepPoint
	for _, spec := range uci.Specs {
		if !o.wants(spec.Name) || spec.RawSamples {
			continue
		}
		for _, s := range ss {
			oo := o
			oo.S = s
			train, _, err := loadInjected(spec, oo, oo.W, data.GaussianModel)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			tree, err := core.Build(train, oo.treeConfig(split.ES))
			if err != nil {
				return nil, err
			}
			points = append(points, SweepPoint{
				Dataset:      spec.Name,
				X:            float64(s),
				BuildTime:    time.Since(start),
				EntropyCalcs: tree.Stats.Search.EntropyCalcs(),
			})
		}
	}
	return points, nil
}

// WSweep reproduces Fig 9: UDT-ES build time as the pdf width w varies.
func WSweep(o Options, ws []float64) ([]SweepPoint, error) {
	o = o.withDefaults()
	if len(ws) == 0 {
		ws = []float64{0.01, 0.05, 0.10, 0.15, 0.20}
	}
	var points []SweepPoint
	for _, spec := range uci.Specs {
		if !o.wants(spec.Name) || spec.RawSamples {
			continue
		}
		for _, w := range ws {
			train, _, err := loadInjected(spec, o, w, data.GaussianModel)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			tree, err := core.Build(train, o.treeConfig(split.ES))
			if err != nil {
				return nil, err
			}
			points = append(points, SweepPoint{
				Dataset:      spec.Name,
				X:            w,
				BuildTime:    time.Since(start),
				EntropyCalcs: tree.Stats.Search.EntropyCalcs(),
			})
		}
	}
	return points, nil
}

// FprintSweep renders a Fig 8/9 curve table.
func FprintSweep(w io.Writer, label string, points []SweepPoint) {
	fmt.Fprintf(w, "%-15s %8s %12s %15s\n", "dataset", label, "build", "entropy calcs")
	for _, p := range points {
		fmt.Fprintf(w, "%-15s %8.3g %12s %15d\n",
			p.Dataset, p.X, p.BuildTime.Round(time.Microsecond), p.EntropyCalcs)
	}
}

// ---------------------------------------------------------------------------
// E10 — §7.5: pruning applied to point data.

// PointDataRow compares split-search work on point-valued data.
type PointDataRow struct {
	Algorithm    string
	BuildTime    time.Duration
	EntropyCalcs int64
	Accuracy     float64
}

// PointData demonstrates §7.5: on a large point-valued dataset (s = 1,
// w = 0) the bounding and end-point-sampling techniques still prune split
// candidates relative to the exhaustive search.
func PointData(o Options, dataset string) ([]PointDataRow, error) {
	o = o.withDefaults()
	spec, err := uci.ByName(dataset)
	if err != nil {
		return nil, err
	}
	if spec.RawSamples {
		return nil, fmt.Errorf("experiments: point-data experiment needs a point dataset")
	}
	ptsTrain, ptsTest, err := uci.Points(spec, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	train, err := data.Inject(ptsTrain, data.InjectConfig{W: 0, S: 1})
	if err != nil {
		return nil, err
	}
	var test *data.Dataset
	if ptsTest != nil {
		if test, err = data.Inject(ptsTest, data.InjectConfig{W: 0, S: 1}); err != nil {
			return nil, err
		}
	} else {
		test = train
	}
	var rows []PointDataRow
	for _, algo := range []string{"UDT", "UDT-GP", "UDT-ES"} {
		start := time.Now()
		tree, err := core.Build(train, o.treeConfig(strategyOf(algo)))
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		f, err := forest.FromTree(tree)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PointDataRow{
			Algorithm:    algo,
			BuildTime:    build,
			EntropyCalcs: tree.Stats.Search.EntropyCalcs(),
			Accuracy:     eval.Accuracy(f, test),
		})
	}
	return rows, nil
}

// FprintPointData renders the §7.5 comparison.
func FprintPointData(w io.Writer, rows []PointDataRow) {
	fmt.Fprintf(w, "%-8s %12s %15s %9s\n", "algo", "build", "entropy calcs", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12s %15d %8.2f%%\n",
			r.Algorithm, r.BuildTime.Round(time.Microsecond), r.EntropyCalcs, r.Accuracy*100)
	}
}
