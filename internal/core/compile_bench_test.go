package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"udt/internal/data"
)

// BenchmarkCompiledVsRecursive measures classification throughput of the
// recursive pointer-chasing descent against the compiled flat-array engine
// on a 10k-tuple batch, single-threaded and with all cores. Run it with
//
//	go test -bench BenchmarkCompiledVsRecursive -benchtime 5x ./internal/core
//
// The compiled path must stay >= 2x the recursive single-thread throughput
// (ISSUE 2 acceptance); CI runs a 1x smoke iteration to keep it compiling.
func BenchmarkCompiledVsRecursive(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	train := buildRandomDataset(rng, 400, 4, 3, 20)
	tree, err := Build(train, Config{MinWeight: 1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		b.Fatal(err)
	}
	batch := buildRandomDataset(rng, 10000, 4, 3, 20).Tuples

	b.Run("recursive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tu := range batch {
				tree.Classify(tu)
			}
		}
		reportThroughput(b, len(batch))
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ClassifyBatch(batch, 1)
		}
		reportThroughput(b, len(batch))
	})
	b.Run("compiled-predict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.PredictBatch(batch, 1)
		}
		reportThroughput(b, len(batch))
	})
	b.Run("compiled-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.PredictBatch(batch, runtime.GOMAXPROCS(0))
		}
		reportThroughput(b, len(batch))
	})
	// Wide pdfs, 30% of each attribute's range as in perfbench's score,
	// straddle most nodes. A straddle reads one mass, so the cost per tuple
	// hardly grows with the sample count, and a warm descent allocates
	// nothing.
	for _, s := range []int{100, 10_000} {
		wide := make([]*data.Tuple, 32)
		for i := range wide {
			wide[i] = wideTuple(b, wideSupports(rng, 4), s)
		}
		b.Run(fmt.Sprintf("compiled-wide-s%d", s), func(b *testing.B) {
			out := make([]float64, len(c.Classes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tu := range wide {
					c.ClassifyInto(tu, out)
				}
			}
			reportThroughput(b, len(wide))
		})
	}
}

func reportThroughput(b *testing.B, batch int) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(batch)*float64(b.N)/s, "tuples/s")
	}
}

// BenchmarkCompile measures the flattening step itself; it is a one-time
// cost paid at model load.
func BenchmarkCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tree, err := Build(buildRandomDataset(rng, 400, 4, 3, 20), Config{MinWeight: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := tree.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}
