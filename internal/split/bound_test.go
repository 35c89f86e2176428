package split

import (
	"math"
	"math/rand"
	"testing"
)

// TestGainRatioBoundIsSafe verifies that the §7.4 gain-ratio interval
// bound never exceeds the true minimum score inside a heterogeneous or
// homogeneous interval (for gain ratio both kinds must be bounded).
func TestGainRatioBoundIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		tuples := randomDataset(rng, 5+rng.Intn(14), 1, 2+rng.Intn(2), 2+rng.Intn(6))
		nClasses := 4
		v := buildAttrView(tuples, 0, nClasses)
		if v == nil || len(v.ends) < 2 {
			continue
		}
		f := NewFinder(Config{Measure: GainRatio, Strategy: UDT})
		f.ensureScratch(nClasses)
		parentCounts := make([]float64, nClasses)
		for _, tu := range tuples {
			parentCounts[tu.Class] += tu.Weight
		}
		parentH := entropyOf(parentCounts, -1)
		for i := 0; i+1 < len(v.ends); i++ {
			a, b := v.ends[i], v.ends[i+1]
			lo, hi := interiorRange(v, a, b)
			if lo >= hi {
				continue
			}
			kTotal := massIn(v, a, b, f.kBuf)
			if classify(f.kBuf) == emptyInterval {
				continue
			}
			nLa := leftCounts(v, a, f.nBuf)
			for c := range f.mBuf {
				f.mBuf[c] = v.totals[c] - f.nBuf[c] - f.kBuf[c]
			}
			in := boundInput{n: f.nBuf, k: f.kBuf, m: f.mBuf}
			bound, ok := gainRatioScoreBound(in, parentH, nLa, nLa+kTotal, v.total)
			if !ok {
				continue // no safe bound claimed: nothing to verify
			}
			left := make([]float64, nClasses)
			right := make([]float64, nClasses)
			for x := lo; x < hi; x++ {
				nL := leftCounts(v, v.xs[x], left)
				for c := range right {
					right[c] = v.totals[c] - left[c]
				}
				score, valid := binarySplitScore(GainRatio, left, right, nL, v.total-nL, parentH)
				if !valid {
					continue
				}
				if bound > score+1e-9 {
					t.Fatalf("trial %d: gain-ratio bound %v exceeds interior score %v", trial, bound, score)
				}
			}
		}
	}
}

// TestBoundAtDegenerateInterval: bounds on intervals with no mass anywhere
// must not panic or produce NaN.
func TestBoundAtDegenerateInterval(t *testing.T) {
	in := boundInput{n: []float64{0, 0}, k: []float64{0, 0}, m: []float64{0, 0}}
	if v := entropyLowerBound(in); v != 0 || math.IsNaN(v) {
		t.Fatalf("entropy bound on empty input = %v", v)
	}
	if v := giniLowerBound(in); v != 0 || math.IsNaN(v) {
		t.Fatalf("gini bound on empty input = %v", v)
	}
}

// TestEntropyBoundTightAtPureSides: when the interval mass is a single
// class and both outer sides are pure too, the bound should be close to
// zero (a perfect split exists at an interval end).
func TestEntropyBoundTightAtPureSides(t *testing.T) {
	in := boundInput{
		n: []float64{5, 0},
		k: []float64{3, 0},
		m: []float64{0, 4},
	}
	bound := entropyLowerBound(in)
	if bound > 1e-9 {
		t.Fatalf("bound = %v on a perfectly separable interval, want ~0", bound)
	}
}

// TestBoundsBelowActualEntropy: the bound must also respect the entropy at
// the interval end points themselves (limit cases t=0, t=1).
func TestBoundsBelowActualEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		classes := 2 + rng.Intn(4)
		in := boundInput{
			n: make([]float64, classes),
			k: make([]float64, classes),
			m: make([]float64, classes),
		}
		for c := 0; c < classes; c++ {
			in.n[c] = rng.Float64() * 10
			in.k[c] = rng.Float64() * 10
			in.m[c] = rng.Float64() * 10
		}
		entB := entropyLowerBound(in)
		giniB := giniLowerBound(in)
		// Score when splitting at the interval's left end (all interval
		// mass goes right) and right end (all goes left).
		for _, frac := range []float64{0, 1} {
			left := make([]float64, classes)
			right := make([]float64, classes)
			var nL, nR float64
			for c := 0; c < classes; c++ {
				left[c] = in.n[c] + frac*in.k[c]
				right[c] = in.m[c] + (1-frac)*in.k[c]
				nL += left[c]
				nR += right[c]
			}
			if nL <= 0 || nR <= 0 {
				continue
			}
			if s, ok := binarySplitScore(Entropy, left, right, nL, nR, 0); ok && entB > s+1e-9 {
				t.Fatalf("trial %d: entropy bound %v exceeds end score %v", trial, entB, s)
			}
			if s, ok := binarySplitScore(Gini, left, right, nL, nR, 0); ok && giniB > s+1e-9 {
				t.Fatalf("trial %d: gini bound %v exceeds end score %v", trial, giniB, s)
			}
		}
	}
}

// TestPruningCountersPopulated: a prunable workload must record pruned
// intervals (LP/GP) and pruned coarse intervals (ES).
func TestPruningCountersPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tuples := randomDataset(rng, 80, 2, 3, 25)
	lp := NewFinder(Config{Measure: Entropy, Strategy: LP})
	lp.Best(tuples, 2, 3)
	if lp.Stats().PrunedIntervals == 0 {
		t.Fatal("LP pruned no intervals on a prunable workload")
	}
	es := NewFinder(Config{Measure: Entropy, Strategy: ES})
	es.Best(tuples, 2, 3)
	if es.Stats().PrunedCoarse == 0 {
		t.Fatal("ES pruned no coarse intervals on a prunable workload")
	}
}

// TestESEndPointFraction: a larger end-point sample means more phase-1
// evaluations; both fractions must find the optimum.
func TestESEndPointFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	tuples := randomDataset(rng, 50, 1, 2, 20)
	ref := NewFinder(Config{Measure: Entropy, Strategy: UDT}).Best(tuples, 1, 2)
	for _, frac := range []float64{0.05, 0.1, 0.5} {
		f := NewFinder(Config{Measure: Entropy, Strategy: ES, EndPointFrac: frac})
		got := f.Best(tuples, 1, 2)
		if math.Abs(got.Score-ref.Score) > 1e-9 {
			t.Fatalf("frac %v: score %v != exhaustive %v", frac, got.Score, ref.Score)
		}
	}
}
