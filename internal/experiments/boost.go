package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"udt/internal/boost"
	"udt/internal/data"
	"udt/internal/eval"
	"udt/internal/forest"
	"udt/internal/split"
	"udt/internal/uci"
)

// BoostRow is one dataset of a BoostVsBagged run: single tree, bagged forest
// and boosted ensemble accuracy under the same protocol on identical folds,
// plus the boosted ensemble's shape.
type BoostRow struct {
	Dataset    string
	Rounds     int     // configured boosting rounds
	Kept       int     // members the final full-train ensemble kept (early stopping)
	TreeAcc    float64 // single UDT tree accuracy (CV or train/test per spec)
	BaggedAcc  float64 // bagged forest accuracy under the same protocol
	BoostAcc   float64 // boosted ensemble accuracy under the same protocol
	BuildTime  time.Duration
	AlphaRange [2]float64 // min and max member vote weight of the full-train ensemble
}

// boostDefaults lists the datasets the boost experiment runs when no
// -datasets filter is given.
var boostDefaults = []string{"Iris", "Glass", "Vehicle", "Segment"}

// BoostVsBagged compares a boosted weighted ensemble against the bagged
// forest and the single UDT tree on the bundled datasets, under the paper's
// protocol (train/test or k-fold CV) on identical folds for all three
// models. workers bounds training concurrency without affecting any result.
func BoostVsBagged(o Options, rounds, trees int) ([]BoostRow, error) {
	o = o.withDefaults()
	if rounds <= 0 {
		rounds = 10
	}
	if trees <= 0 {
		trees = 25
	}
	selected := o.Datasets
	if len(selected) == 0 {
		selected = boostDefaults
	}
	var rows []BoostRow
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
		bagMemberCfg := treeCfg
		bagMemberCfg.Parallelism = 1
		bagMemberCfg.PostPrune = false
		fCfg := forest.Config{
			Trees:      trees,
			Seed:       o.Seed,
			Workers:    max(o.Parallelism, 1),
			TreeConfig: bagMemberCfg,
		}
		bCfg := boost.Config{
			Rounds:     rounds,
			Workers:    max(o.Workers, 1),
			TreeConfig: boost.WeakMemberConfig(treeCfg),
		}

		// Identical folds for all three models: the same seed deals them.
		tr, err := o.protocol(train, test, o.Seed+1, eval.Tree(treeCfg))
		if err != nil {
			return nil, err
		}
		fr, err := o.protocol(train, test, o.Seed+1, eval.Bagged(fCfg))
		if err != nil {
			return nil, err
		}
		br, err := o.protocol(train, test, o.Seed+1, eval.Boosted(bCfg))
		if err != nil {
			return nil, err
		}
		row := BoostRow{
			Dataset: spec.Name, Rounds: rounds,
			TreeAcc: tr.Accuracy, BaggedAcc: fr.Accuracy, BoostAcc: br.Accuracy, BuildTime: br.BuildTime,
		}

		// Ensemble shape comes from an ensemble over the full training set —
		// the model a production trainer would ship.
		bst, err := boost.Train(train, bCfg)
		if err != nil {
			return nil, err
		}
		row.Kept = bst.NumTrees()
		ws := bst.Weights()
		row.AlphaRange = [2]float64{slices.Min(ws), slices.Max(ws)}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintBoost renders a BoostVsBagged run.
func FprintBoost(w io.Writer, rows []BoostRow) {
	fmt.Fprintf(w, "%-14s %7s %5s %9s %11s %10s %13s %10s\n",
		"dataset", "rounds", "kept", "tree acc", "bagged acc", "boost acc", "alpha range", "build")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %7d %5d %8.2f%% %10.2f%% %9.2f%% %6.2f-%5.2f %10v\n",
			r.Dataset, r.Rounds, r.Kept, r.TreeAcc*100, r.BaggedAcc*100, r.BoostAcc*100,
			r.AlphaRange[0], r.AlphaRange[1], r.BuildTime.Round(time.Millisecond))
	}
}
