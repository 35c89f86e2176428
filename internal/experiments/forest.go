package experiments

import (
	"fmt"
	"io"
	"time"

	"udt/internal/data"
	"udt/internal/eval"
	"udt/internal/forest"
	"udt/internal/split"
	"udt/internal/uci"
)

// ForestRow is one dataset of a ForestVsTree run: single-tree vs bagged
// ensemble accuracy under the same protocol and identical folds, and the
// ensemble's out-of-bag estimate.
type ForestRow struct {
	Dataset   string
	Trees     int
	TreeAcc   float64 // single UDT tree accuracy (CV or train/test per spec)
	ForestAcc float64 // ensemble accuracy under the same protocol
	OOBAcc    float64 // out-of-bag accuracy of a forest on the full training set
	OOBBrier  float64
	BuildTime time.Duration
}

// forestDefaults lists the datasets the forest experiment runs when no
// -datasets filter is given: small enough to finish quickly, varied enough
// (attribute count, class count) to show where bagging helps.
var forestDefaults = []string{"Iris", "Glass", "Vehicle", "Segment"}

// ForestVsTree compares a bagged ensemble of the given size against a
// single UDT tree on the bundled datasets: the paper's protocol (train/test
// or k-fold CV on identical folds) for accuracy, plus out-of-bag statistics.
// workers bounds training concurrency without affecting any result.
func ForestVsTree(o Options, trees int) ([]ForestRow, error) {
	o = o.withDefaults()
	if trees <= 0 {
		trees = 25
	}
	selected := o.Datasets
	if len(selected) == 0 {
		selected = forestDefaults
	}
	var rows []ForestRow
	for _, name := range selected {
		spec, err := uci.ByName(name)
		if err != nil {
			return nil, err
		}
		train, test, err := loadInjected(spec, o, o.W, data.GaussianModel)
		if err != nil {
			return nil, err
		}
		treeCfg := o.treeConfig(split.ES)
		// Members build concurrently at the forest level, so each builds its
		// own subtrees serially — the goroutine budget stays
		// Parallelism × Workers, as in a single-tree build. Members are
		// unpruned (low bias), matching the udtree train -forest default.
		memberCfg := treeCfg
		memberCfg.Parallelism = 1
		memberCfg.PostPrune = false
		fCfg := forest.Config{
			Trees:      trees,
			Seed:       o.Seed,
			Workers:    max(o.Parallelism, 1),
			TreeConfig: memberCfg,
		}

		// Identical folds for both models: the same seed deals them.
		tr, err := o.protocol(train, test, o.Seed+1, eval.Tree(treeCfg))
		if err != nil {
			return nil, err
		}
		fr, err := o.protocol(train, test, o.Seed+1, eval.Bagged(fCfg))
		if err != nil {
			return nil, err
		}
		row := ForestRow{
			Dataset: spec.Name, Trees: trees,
			TreeAcc: tr.Accuracy, ForestAcc: fr.Accuracy, BuildTime: fr.BuildTime,
		}

		// OOB statistics come from a forest over the full training set — the
		// model a production trainer would ship.
		f, err := forest.Train(train, fCfg)
		if err != nil {
			return nil, err
		}
		row.OOBAcc, row.OOBBrier = f.OOB.Accuracy, f.OOB.Brier
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintForest renders a ForestVsTree run.
func FprintForest(w io.Writer, rows []ForestRow) {
	fmt.Fprintf(w, "%-14s %6s %9s %10s %8s %9s %10s\n",
		"dataset", "trees", "tree acc", "forest acc", "OOB acc", "OOB Brier", "build")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %6d %8.2f%% %9.2f%% %7.2f%% %9.4f %10v\n",
			r.Dataset, r.Trees, r.TreeAcc*100, r.ForestAcc*100, r.OOBAcc*100, r.OOBBrier,
			r.BuildTime.Round(time.Millisecond))
	}
}
