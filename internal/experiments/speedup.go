package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"udt/internal/data"
	"udt/internal/split"
)

// SpeedupRow is one measured worker count of a SplitSpeedup run.
type SpeedupRow struct {
	Workers int
	Time    time.Duration
	Calcs   int64   // Stats.EntropyCalcs() of the search
	Speedup float64 // serial time / this row's time
	Match   bool    // result identical to the serial search
}

// SplitSpeedup measures the intra-node parallel split search (the Workers
// knob) on the root node of a synthetic uncertain dataset of the given size
// — the node where every tuple and attribute is scanned, dominating build
// cost. For each worker count it reports wall time, the paper's
// entropy-calculation cost metric (pruning power must not degrade), and
// whether the returned split is identical to the serial one (it must be;
// the parallel search is deterministic). Speedup beyond 1 requires multiple
// CPUs.
func SplitSpeedup(o Options, strategy split.Strategy, workerCounts []int, tuples int) ([]SpeedupRow, error) {
	o = o.withDefaults()
	if tuples <= 0 {
		tuples = 10000
	}
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("experiments: no worker counts given")
	}
	ds, err := syntheticClusters(o, "speedup-synthetic", tuples)
	if err != nil {
		return nil, err
	}
	attrs, classes := len(ds.NumAttrs), len(ds.Classes)

	// The serial reference supplies both the result-identity oracle and
	// the speedup baseline, independent of which worker counts follow.
	cfg := split.Config{Measure: o.Measure, Strategy: strategy}
	start := time.Now()
	serial := split.NewFinder(cfg).Best(ds.Tuples, attrs, classes)
	serialTime := max(time.Since(start), time.Nanosecond)

	rows := make([]SpeedupRow, 0, len(workerCounts))
	for _, w := range workerCounts {
		wcfg := cfg
		wcfg.Workers = w
		f := split.NewFinder(wcfg)
		start := time.Now()
		res := f.Best(ds.Tuples, attrs, classes)
		elapsed := max(time.Since(start), time.Nanosecond)
		rows = append(rows, SpeedupRow{
			Workers: w,
			Time:    elapsed,
			Calcs:   f.Stats().EntropyCalcs(),
			Speedup: float64(serialTime) / float64(elapsed),
			Match:   res == serial,
		})
	}
	return rows, nil
}

// FprintSpeedup renders a SplitSpeedup run.
func FprintSpeedup(w io.Writer, strategy split.Strategy, tuples int, rows []SpeedupRow) {
	fmt.Fprintf(w, "%s root split search, %d tuples\n", strategy, tuples)
	fmt.Fprintf(w, "%8s %14s %12s %9s %6s\n", "workers", "time", "calcs", "speedup", "same")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %14v %12d %8.2fx %6v\n",
			r.Workers, r.Time.Round(time.Microsecond), r.Calcs, r.Speedup, r.Match)
	}
}

// syntheticClusters builds the Gaussian-cluster uncertain dataset the
// speedup experiment runs on: four attributes, three classes, cluster
// centres 1.5 apart with unit Gaussian spread, then uncertainty injected per
// the options.
func syntheticClusters(o Options, name string, tuples int) (*data.Dataset, error) {
	const attrs, classes = 4, 3
	rng := rand.New(rand.NewSource(o.Seed))
	pts := &data.Points{
		Name:    name,
		Attrs:   make([]string, attrs),
		Classes: make([]string, classes),
		Rows:    make([][]float64, tuples),
		Labels:  make([]int, tuples),
	}
	for j := range pts.Attrs {
		pts.Attrs[j] = fmt.Sprintf("a%d", j)
	}
	for c := range pts.Classes {
		pts.Classes[c] = fmt.Sprintf("c%d", c)
	}
	for i := range pts.Rows {
		c := rng.Intn(classes)
		row := make([]float64, attrs)
		for j := range row {
			row[j] = float64(c)*1.5 + rng.NormFloat64()
		}
		pts.Rows[i] = row
		pts.Labels[i] = c
	}
	return data.Inject(pts, data.InjectConfig{W: o.W, S: o.S, Model: data.GaussianModel})
}
