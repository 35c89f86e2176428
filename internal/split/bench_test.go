package split

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkBuildAttrView indexes one attribute of a 200-tuple node into a
// reused builder and view, as a finder does from one attribute to the next.
func BenchmarkBuildAttrView(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tuples := randomDataset(rng, 200, 1, 4, 50)
	var vb viewBuilder
	var v attrView
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vb.build(&v, tuples, 0, 4) == 0 {
			b.Fatal("empty view")
		}
	}
}

// BenchmarkBestStrategies runs one node's search per §5 strategy with a
// reused finder and reports the paper's work (calcs/op) beside the index
// work (indexed/op, samples merged into views) and allocations.
func BenchmarkBestStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tuples := randomDataset(rng, 150, 3, 4, 40)
	for _, strat := range []Strategy{UDT, BP, LP, GP, ES} {
		b.Run(strat.String(), func(b *testing.B) {
			f := NewFinder(Config{Measure: Entropy, Strategy: strat})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := f.Best(tuples, 3, 4)
				if !res.Found {
					b.Fatal("no split found")
				}
			}
			b.ReportMetric(float64(f.Stats().EntropyCalcs())/float64(b.N), "calcs/op")
			b.ReportMetric(float64(f.Stats().Indexed)/float64(b.N), "indexed/op")
		})
	}
}

// BenchmarkBestWorkers measures intra-node parallel split search on a
// root-sized node (10k tuples, the acceptance scale of the parallel-search
// work). Speedup of workers>1 over serial requires multiple CPUs; on a
// single-core machine the fan-out only adds scheduling overhead, so treat
// the time ratio as hardware-dependent. The calcs/op metric is
// hardware-independent: it shows the §5 pruning power is preserved by the
// shared global threshold (parallel counts stay within the serial counts).
// Result determinism is pinned by TestParallelBestMatchesSerial.
func BenchmarkBestWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tuples := randomDataset(rng, 10000, 4, 3, 20)
	for _, strat := range []Strategy{GP, ES} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0), 8} {
			b.Run(fmt.Sprintf("%v/workers=%d", strat, workers), func(b *testing.B) {
				f := NewFinder(Config{Measure: Entropy, Strategy: strat, Workers: workers})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res := f.Best(tuples, 4, 3); !res.Found {
						b.Fatal("no split found")
					}
				}
				b.ReportMetric(float64(f.Stats().EntropyCalcs())/float64(b.N), "calcs/op")
			})
		}
	}
}

func BenchmarkBestMeasures(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tuples := randomDataset(rng, 100, 2, 3, 30)
	for _, m := range []Measure{Entropy, Gini, GainRatio} {
		b.Run(m.String(), func(b *testing.B) {
			f := NewFinder(Config{Measure: m, Strategy: GP})
			for i := 0; i < b.N; i++ {
				f.Best(tuples, 2, 3)
			}
		})
	}
}

func BenchmarkEntropyLowerBound(b *testing.B) {
	in := boundInput{
		n: []float64{3, 1, 4, 1},
		k: []float64{5, 9, 2, 6},
		m: []float64{5, 3, 5, 8},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entropyLowerBound(in)
	}
}

func BenchmarkCategoricalScore(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tuples := randomDataset(rng, 100, 1, 3, 5)
	for _, tu := range tuples {
		d := make([]float64, 4)
		for v := range d {
			d[v] = rng.Float64()
		}
		total := d[0] + d[1] + d[2] + d[3]
		for v := range d {
			d[v] /= total
		}
		tu.Cat = append(tu.Cat, d)
	}
	f := NewFinder(Config{Measure: Entropy})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CategoricalScore(tuples, 0, 4, 3)
	}
}
