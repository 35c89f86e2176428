package udt_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, named after its artefact (README.md, "Reproducing the paper",
// maps each to its udtbench experiment). Benchmarks run at a reduced dataset
// scale so `go test -bench=.` completes in minutes; the cmd/udtbench binary
// runs the same drivers at arbitrary scale. Custom metrics surface the
// quantities the paper reports: accuracy percentages (Table 3, Fig 4) and
// entropy calculation counts (Figs 6-9).

import (
	"testing"

	"udt/internal/experiments"
	"udt/internal/split"
)

// benchOpts is the reduced-scale configuration shared by the benchmarks.
func benchOpts(datasets ...string) experiments.Options {
	return experiments.Options{
		Scale:    0.05,
		S:        40,
		W:        0.10,
		Seed:     1,
		Folds:    3,
		Datasets: datasets,
		MaxDepth: 10,
	}
}

// BenchmarkTable3Accuracy regenerates Table 3 (accuracy of AVG vs UDT) on a
// representative dataset subset, reporting the mean accuracies as metrics.
func BenchmarkTable3Accuracy(b *testing.B) {
	o := benchOpts("Iris", "Glass", "Vehicle")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AccuracyTable(o, []float64{0.05, 0.10})
		if err != nil {
			b.Fatal(err)
		}
		var avg, udtAcc float64
		for _, r := range rows {
			avg += r.AVG
			udtAcc += r.UDT
		}
		b.ReportMetric(avg/float64(len(rows))*100, "%avg")
		b.ReportMetric(udtAcc/float64(len(rows))*100, "%udt")
	}
}

// BenchmarkFig4NoiseModel regenerates the Fig 4 controlled-noise experiment
// on the Segment stand-in.
func BenchmarkFig4NoiseModel(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		points, err := experiments.NoiseModel(o, "Segment",
			[]float64{0, 0.05}, []float64{0, 0.05, 0.10})
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, p := range points {
			if !p.Model && p.Accuracy > best {
				best = p.Accuracy
			}
		}
		b.ReportMetric(best*100, "%best")
	}
}

// BenchmarkFig6ExecutionTime regenerates Fig 6: construction time of each
// algorithm, as sub-benchmarks so the per-algorithm ns/op ratios mirror the
// paper's bars.
func BenchmarkFig6ExecutionTime(b *testing.B) {
	for _, algo := range experiments.Algorithms {
		b.Run(algo, func(b *testing.B) {
			o := benchOpts("Glass", "Iris")
			o.Datasets = []string{"Glass"}
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Efficiency(o)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Algorithm == algo {
						b.ReportMetric(float64(r.EntropyCalcs), "entropy-calcs")
					}
				}
				_ = rows
			}
		})
	}
}

// BenchmarkFig7Pruning regenerates Fig 7: the number of entropy
// calculations of each algorithm relative to exhaustive UDT.
func BenchmarkFig7Pruning(b *testing.B) {
	o := benchOpts("Glass")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Efficiency(o)
		if err != nil {
			b.Fatal(err)
		}
		var udtCalcs, esCalcs float64
		for _, r := range rows {
			switch r.Algorithm {
			case "UDT":
				udtCalcs = float64(r.EntropyCalcs)
			case "UDT-ES":
				esCalcs = float64(r.EntropyCalcs)
			}
		}
		b.ReportMetric(udtCalcs, "udt-calcs")
		b.ReportMetric(esCalcs, "es-calcs")
		if udtCalcs > 0 {
			b.ReportMetric(esCalcs/udtCalcs*100, "%remaining")
		}
	}
}

// BenchmarkFig8SampleSweep regenerates Fig 8: UDT-ES cost as the number of
// pdf sample points s grows (expected roughly linear).
func BenchmarkFig8SampleSweep(b *testing.B) {
	o := benchOpts("Iris")
	for i := 0; i < b.N; i++ {
		points, err := experiments.SSweep(o, []int{20, 40, 80})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[len(points)-1].EntropyCalcs), "calcs@s=80")
	}
}

// BenchmarkFig9WidthSweep regenerates Fig 9: UDT-ES cost as the pdf width w
// grows (heterogeneous intervals become more common).
func BenchmarkFig9WidthSweep(b *testing.B) {
	o := benchOpts("Iris")
	for i := 0; i < b.N; i++ {
		points, err := experiments.WSweep(o, []float64{0.01, 0.10, 0.20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[len(points)-1].EntropyCalcs), "calcs@w=20%")
	}
}

// BenchmarkGiniPruning is the §7.4 generalisation: the efficiency study
// under the Gini index with the Eq. (4) bound.
func BenchmarkGiniPruning(b *testing.B) {
	o := benchOpts("Glass")
	o.Measure = split.Gini
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Efficiency(o)
		if err != nil {
			b.Fatal(err)
		}
		var udtCalcs, esCalcs float64
		for _, r := range rows {
			switch r.Algorithm {
			case "UDT":
				udtCalcs = float64(r.EntropyCalcs)
			case "UDT-ES":
				esCalcs = float64(r.EntropyCalcs)
			}
		}
		if udtCalcs > 0 {
			b.ReportMetric(esCalcs/udtCalcs*100, "%remaining")
		}
	}
}

// BenchmarkAblationESFraction sweeps the UDT-ES end-point sample fraction
// (the design choice §5.3 fixes at 10%) and reports the work at the
// extremes. The resulting tree is identical at every fraction.
func BenchmarkAblationESFraction(b *testing.B) {
	o := benchOpts()
	o.Scale = 0.15
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ESFractionAblation(o, "Glass", []float64{0.05, 0.10, 0.50})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].EntropyCalcs), "calcs@5%")
		b.ReportMetric(float64(rows[1].EntropyCalcs), "calcs@10%")
		b.ReportMetric(float64(rows[2].EntropyCalcs), "calcs@50%")
	}
}

// BenchmarkAblationEndPointMode compares §5.1 domain end points against
// the §7.3 percentile artificial end points under UDT-GP.
func BenchmarkAblationEndPointMode(b *testing.B) {
	o := benchOpts()
	o.Scale = 0.15
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EndPointModeAblation(o, "Iris")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].EntropyCalcs), "domain-calcs")
		b.ReportMetric(float64(rows[1].EntropyCalcs), "pctile-calcs")
	}
}

// BenchmarkPointDataPruning is the §7.5 observation: the bounding and
// end-point-sampling techniques also prune split-search work on plain
// point data (s = 1).
func BenchmarkPointDataPruning(b *testing.B) {
	o := benchOpts()
	o.Scale = 0.2
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PointData(o, "Segment")
		if err != nil {
			b.Fatal(err)
		}
		var udtCalcs, esCalcs float64
		for _, r := range rows {
			switch r.Algorithm {
			case "UDT":
				udtCalcs = float64(r.EntropyCalcs)
			case "UDT-ES":
				// On point data every sample is an end point, so interval
				// bounding alone (GP) cannot skip anything; the saving comes
				// from end-point sampling (§7.5).
				esCalcs = float64(r.EntropyCalcs)
			}
		}
		if udtCalcs > 0 {
			b.ReportMetric(esCalcs/udtCalcs*100, "%remaining")
		}
	}
}
