// Command udtbench regenerates the tables and figures of the paper's
// evaluation (README.md, "Reproducing the paper", maps each -exp value to
// its artefact). -scale trades fidelity for speed (1.0 reproduces the
// Table 2 dataset sizes, the default 0.1 finishes in minutes on a laptop).
//
// Usage:
//
//	udtbench -exp accuracy            # Table 3
//	udtbench -exp time -scale 0.25    # Fig 6 at quarter scale
//	udtbench -exp all -datasets Iris,Glass
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"udt/internal/cliutil"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/eval"
	"udt/internal/experiments"
	"udt/internal/forest"
	"udt/internal/obs"
	"udt/internal/pdf"
	"udt/internal/split"
	"udt/internal/uci"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: example|datasets|accuracy|noise|time|pruning|s-sweep|w-sweep|gini|point|es-trace|es-ablation|endpoint-ablation|speedup|forest|boost|all")
		scale    = flag.Float64("scale", 0.1, "dataset scale in (0,1]; 1 = Table 2 sizes")
		s        = flag.Int("s", 100, "sample points per pdf")
		w        = flag.Float64("w", 0.10, "pdf width as a fraction of the attribute range")
		seed     = flag.Int64("seed", 1, "RNG seed")
		folds    = flag.Int("folds", 10, "cross-validation folds")
		datasets = flag.String("datasets", "", "comma-separated dataset filter (default: all)")
		maxDepth = flag.Int("maxdepth", 0, "tree depth cap (0 = unlimited)")
		noiseOn  = flag.String("noise-dataset", "Segment", "dataset for the Fig 4 noise experiment")
		pointOn  = flag.String("point-dataset", "Segment", "dataset for the §7.5 point-data experiment")
		workers  = flag.Int("workers", 1, "intra-node split-search workers (>= 1)")
		parallel = flag.Int("parallel", 1, "concurrent subtree builds (>= 1)")
		strategy = flag.String("strategy", "es", "strategy for the speedup experiment: udt|bp|lp|gp|es")
		tuples   = flag.Int("tuples", 10000, "dataset size for the speedup experiment")
		trees    = flag.Int("trees", 25, "ensemble size for the forest experiment (>= 1)")
		rounds   = flag.Int("rounds", 15, "boosting rounds for the boost experiment (>= 1)")
		progress = flag.Bool("progress", false, "narrate tree builds on stderr and print a split-search timing summary")
		version  = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(cliutil.VersionString("udtbench"))
		return
	}

	if err := cliutil.CheckPositive("-trees", *trees); err != nil {
		fatal(err)
	}
	if err := cliutil.CheckPositive("-rounds", *rounds); err != nil {
		fatal(err)
	}

	if err := cliutil.CheckPositive("-workers", *workers); err != nil {
		fatal(err)
	}
	if err := cliutil.CheckPositive("-parallel", *parallel); err != nil {
		fatal(err)
	}
	strat, err := cliutil.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	if err := cliutil.CheckPositive("-tuples", *tuples); err != nil {
		fatal(err)
	}

	opts := experiments.Options{
		Scale:       *scale,
		S:           *s,
		W:           *w,
		Seed:        *seed,
		Folds:       *folds,
		MaxDepth:    *maxDepth,
		Parallelism: *parallel,
		Workers:     *workers,
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	var prog *obs.TrainProgress
	if *progress {
		prog = obs.NewTrainProgress(os.Stderr)
		opts.Progress = prog.Hook()
	}

	run := func(name string) error {
		switch name {
		case "example":
			return runExample()
		case "datasets":
			fmt.Println("== Table 2: datasets ==")
			experiments.FprintDatasetTable(os.Stdout, experiments.DatasetTable(opts))
		case "accuracy":
			fmt.Println("== Table 3: accuracy AVG vs UDT ==")
			rows, err := experiments.AccuracyTable(opts, nil)
			if err != nil {
				return err
			}
			experiments.FprintAccuracyTable(os.Stdout, rows)
		case "noise":
			fmt.Printf("== Fig 4: controlled noise on %q ==\n", *noiseOn)
			points, err := experiments.NoiseModel(opts, *noiseOn, nil, nil)
			if err != nil {
				return err
			}
			experiments.FprintNoiseModel(os.Stdout, points)
		case "time", "pruning":
			fmt.Println("== Figs 6-7: execution time and pruning effectiveness ==")
			rows, err := experiments.Efficiency(opts)
			if err != nil {
				return err
			}
			experiments.FprintEfficiency(os.Stdout, rows)
		case "s-sweep":
			fmt.Println("== Fig 8: effect of s on UDT-ES ==")
			points, err := experiments.SSweep(opts, nil)
			if err != nil {
				return err
			}
			experiments.FprintSweep(os.Stdout, "s", points)
		case "w-sweep":
			fmt.Println("== Fig 9: effect of w on UDT-ES ==")
			points, err := experiments.WSweep(opts, nil)
			if err != nil {
				return err
			}
			experiments.FprintSweep(os.Stdout, "w", points)
		case "gini":
			fmt.Println("== §7.4: efficiency under the Gini index ==")
			giniOpts := opts
			giniOpts.Measure = split.Gini
			rows, err := experiments.Efficiency(giniOpts)
			if err != nil {
				return err
			}
			experiments.FprintEfficiency(os.Stdout, rows)
		case "point":
			fmt.Printf("== §7.5: pruning on point data (%q) ==\n", *pointOn)
			rows, err := experiments.PointData(opts, *pointOn)
			if err != nil {
				return err
			}
			experiments.FprintPointData(os.Stdout, rows)
		case "es-trace":
			fmt.Println("== Fig 5: end-point sampling trace ==")
			return runTrace(opts)
		case "es-ablation":
			fmt.Printf("== ablation: UDT-ES end-point sample fraction (%q) ==\n", *pointOn)
			rows, err := experiments.ESFractionAblation(opts, *pointOn, nil)
			if err != nil {
				return err
			}
			experiments.FprintAblation(os.Stdout, rows)
		case "endpoint-ablation":
			fmt.Printf("== ablation: §7.3 percentile vs domain end points (%q) ==\n", *pointOn)
			rows, err := experiments.EndPointModeAblation(opts, *pointOn)
			if err != nil {
				return err
			}
			experiments.FprintAblation(os.Stdout, rows)
		case "forest":
			fmt.Println("== bagged forest vs single tree: accuracy and out-of-bag estimate ==")
			rows, err := experiments.ForestVsTree(opts, *trees)
			if err != nil {
				return err
			}
			experiments.FprintForest(os.Stdout, rows)
		case "boost":
			fmt.Println("== boosted weighted ensemble vs bagged forest vs single tree ==")
			rows, err := experiments.BoostVsBagged(opts, *rounds, *trees)
			if err != nil {
				return err
			}
			experiments.FprintBoost(os.Stdout, rows)
		case "speedup":
			fmt.Println("== intra-node parallel split search: serial vs -workers ==")
			counts := []int{1, *workers}
			if *workers <= 1 {
				counts = []int{1, 2, 4, 8}
			}
			rows, err := experiments.SplitSpeedup(opts, strat, counts, *tuples)
			if err != nil {
				return err
			}
			experiments.FprintSpeedup(os.Stdout, strat, *tuples, rows)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"example", "datasets", "accuracy", "noise", "time", "s-sweep", "w-sweep", "gini", "point", "es-trace", "es-ablation", "endpoint-ablation", "speedup", "forest", "boost"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if prog != nil {
		prog.Summary(os.Stderr)
	}
}

// fatal reports a usage or runtime error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "udtbench:", err)
	os.Exit(1)
}

// runTrace prints the Fig 5 illustration: the nine steps of the UDT-ES
// end-point sampling process on the first attribute of a small Iris-shaped
// uncertain dataset.
func runTrace(opts experiments.Options) error {
	spec, err := uci.ByName("Iris")
	if err != nil {
		return err
	}
	pts, _, err := uci.Points(spec, 0.2, 1)
	if err != nil {
		return err
	}
	ds, err := data.Inject(pts, data.InjectConfig{W: 0.3, S: 20, Model: data.GaussianModel})
	if err != nil {
		return err
	}
	steps, err := split.TraceES(ds.Tuples, 0, len(ds.Classes), split.Config{
		Measure:  split.Entropy,
		Strategy: split.ES,
	})
	if err != nil {
		return err
	}
	split.FprintTrace(os.Stdout, steps)
	return nil
}

// runExample reproduces the worked example of Table 1 / Figs 2-3: six
// handcrafted tuples on which Averaging misclassifies two while the
// Distribution-based tree classifies all six correctly.
func runExample() error {
	fmt.Println("== Table 1 / Figs 2-3: worked example ==")
	ds := data.NewDataset("table1", 1, []string{"A", "B"})
	ds.Add(0, pdf.Point(2))
	ds.Add(0, pdf.MustNew([]float64{-6, 2}, []float64{1, 1}))
	ds.Add(0, pdf.MustNew([]float64{-1, 1, 10}, []float64{5, 1, 2}))
	ds.Add(1, pdf.Point(-2))
	ds.Add(1, pdf.MustNew([]float64{-2, 6}, []float64{1, 1}))
	ds.Add(1, pdf.MustNew([]float64{-4, 0}, []float64{1, 1}))

	cfg := core.Config{MinWeight: 0.01}
	avg, err := core.BuildAveraging(ds, cfg)
	if err != nil {
		return err
	}
	udtTree, err := core.Build(ds, cfg)
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name string
		tree *core.Tree
	}{{"Averaging", avg}, {"Distribution-based", udtTree}} {
		f, err := forest.FromTree(m.tree)
		if err != nil {
			return err
		}
		fmt.Printf("%s tree (accuracy %.0f%%):\n%s\n", m.name, eval.Accuracy(f, ds)*100, m.tree.Dump())
	}
	fmt.Println("Classification distributions (UDT):")
	for i, tu := range ds.Tuples {
		dist := udtTree.Classify(tu)
		fmt.Printf("  tuple %d (true %s): P(A)=%.4f P(B)=%.4f\n",
			i+1, ds.Classes[tu.Class], dist[0], dist[1])
	}
	return nil
}
