package core

import (
	"math/rand"
	"runtime"
	"testing"

	"udt/internal/data"
	"udt/internal/pdf"
)

// wideAttrs is the attribute count of the allocation tests: the Segment
// shape perfbench's score and serve workloads use.
const wideAttrs = 19

// wideTree trains a tree on buildRandomDataset data over wideAttrs
// attributes, whose values lie in about [-2.7, 6.7].
func wideTree(t testing.TB) *Compiled {
	t.Helper()
	tree, err := Build(buildRandomDataset(rand.New(rand.NewSource(31)), 300, wideAttrs, 3, 20), Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wideSupports draws supports for k attributes of buildRandomDataset data,
// each 30% of the attribute's range wide, as perfbench's score tuples are.
func wideSupports(rng *rand.Rand, k int) [][2]float64 {
	const lo, hi = -2.7, 6.7
	w := 0.3 * (hi - lo)
	sup := make([][2]float64, k)
	for j := range sup {
		a := lo + rng.Float64()*(hi-lo-w)
		sup[j] = [2]float64{a, a + w}
	}
	return sup
}

// wideTuple is the tuple whose attributes are uniform pdfs of s samples
// over the given supports.
func wideTuple(t testing.TB, sup [][2]float64, s int) *data.Tuple {
	t.Helper()
	tu := &data.Tuple{Num: make([]*pdf.PDF, len(sup)), Weight: 1}
	for j, ab := range sup {
		p, err := pdf.Uniform(ab[0], ab[1], s)
		if err != nil {
			t.Fatal(err)
		}
		tu.Num[j] = p
	}
	return tu
}

// TestDescentWarmAllocs: a warm compiled descent allocates nothing, on the
// wide pdfs that straddle most nodes.
func TestDescentWarmAllocs(t *testing.T) {
	c := wideTree(t)
	rng := rand.New(rand.NewSource(32))
	var batch []*data.Tuple
	for i := 0; i < 16; i++ {
		batch = append(batch, wideTuple(t, wideSupports(rng, wideAttrs), 100))
	}
	out := make([]float64, len(c.Classes))
	s := new(scratch)
	if n := testing.AllocsPerRun(20, func() {
		for _, tu := range batch {
			c.classify(tu, out, s, 1)
		}
	}); n != 0 {
		t.Errorf("a descent with warm scratch allocates %v times per batch", n)
	}
	// The race detector's sync.Pool drops items at random, so there the
	// pooled entry points allocate a fresh scratch now and then.
	if testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			scratchPool.Put(scratchPool.Get())
		}
	}) > 0 {
		t.Skip("sync.Pool does not keep items in this build; pooled calls cannot be pinned")
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, tu := range batch {
			c.ClassifyInto(tu, out)
		}
	}); n != 0 {
		t.Errorf("warm ClassifyInto allocates %v times per batch", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, tu := range batch {
			c.Predict(tu)
		}
	}); n != 0 {
		t.Errorf("warm Predict allocates %v times per batch", n)
	}
}

// coldAlloc returns the bytes and allocations of one descent of tu with a
// fresh scratch: the growth of its slabs. It takes the least of a few runs,
// so a stray runtime allocation cannot inflate it.
func coldAlloc(c *Compiled, tu *data.Tuple) (bytes, mallocs uint64) {
	out := make([]float64, len(c.Classes))
	var fresh [4]*scratch
	var m0, m1 runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		for i := range fresh {
			fresh[i] = new(scratch)
		}
		runtime.ReadMemStats(&m0)
		for _, s := range fresh {
			c.classify(tu, out, s, 1)
		}
		runtime.ReadMemStats(&m1)
		b, m := (m1.TotalAlloc-m0.TotalAlloc)/uint64(len(fresh)), (m1.Mallocs-m0.Mallocs)/uint64(len(fresh))
		if rep == 0 || b < bytes {
			bytes, mallocs = b, m
		}
	}
	return bytes, mallocs
}

// TestColdDescentMemoryIndependentOfSamples bounds a descent's memory by
// the tree, not the tuple: a cold descent of 19 pdfs of 80,000 samples each
// (the 15 MiB /classify body) allocates exactly what one of 100-sample pdfs
// over the same supports does.
func TestColdDescentMemoryIndependentOfSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 24 MiB tuples")
	}
	c := wideTree(t)
	rng := rand.New(rand.NewSource(33))
	for probe := 0; probe < 3; probe++ {
		sup := wideSupports(rng, wideAttrs)
		smallB, smallM := coldAlloc(c, wideTuple(t, sup, 100))
		largeB, largeM := coldAlloc(c, wideTuple(t, sup, 80_000))
		if largeB != smallB || largeM != smallM {
			t.Errorf("probe %d: a cold descent allocates %d B in %d allocations at 80,000 samples, %d B in %d at 100",
				probe, largeB, largeM, smallB, smallM)
		}
	}
}
