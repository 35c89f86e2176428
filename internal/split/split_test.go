package split

import (
	"math"
	"math/rand"
	"testing"

	"udt/internal/data"
	"udt/internal/pdf"
)

// randomDataset builds a small random uncertain dataset for property tests.
func randomDataset(rng *rand.Rand, m, k, classes, s int) []*data.Tuple {
	tuples := make([]*data.Tuple, m)
	for i := range tuples {
		num := make([]*pdf.PDF, k)
		class := rng.Intn(classes)
		for j := range num {
			centre := float64(class)*1.5 + rng.NormFloat64()
			width := 0.2 + rng.Float64()*2
			switch rng.Intn(3) {
			case 0:
				num[j] = pdf.Point(centre)
			case 1:
				p, _ := pdf.Uniform(centre-width/2, centre+width/2, s)
				num[j] = p
			default:
				p, _ := pdf.Gaussian(centre, width/4, centre-width/2, centre+width/2, s)
				num[j] = p
			}
		}
		w := 1.0
		if rng.Intn(3) == 0 {
			w = 0.1 + rng.Float64() // fractional tuples appear mid-tree
		}
		tuples[i] = &data.Tuple{Num: num, Class: class, Weight: w}
	}
	return tuples
}

func TestEntropyOf(t *testing.T) {
	if h := entropyOf([]float64{1, 1}, 2); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H(1/2,1/2) = %v, want 1", h)
	}
	if h := entropyOf([]float64{4, 0}, 4); h != 0 {
		t.Fatalf("pure entropy = %v, want 0", h)
	}
	if h := entropyOf(nil, 0); h != 0 {
		t.Fatalf("empty entropy = %v", h)
	}
	if h := entropyOf([]float64{1, 1, 1, 1}, -1); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H(uniform 4) = %v, want 2", h)
	}
}

func TestGiniOf(t *testing.T) {
	if g := giniOf([]float64{1, 1}, 2); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("gini(1/2,1/2) = %v, want 0.5", g)
	}
	if g := giniOf([]float64{3, 0}, -1); g != 0 {
		t.Fatalf("pure gini = %v", g)
	}
}

func TestSplitInfo(t *testing.T) {
	if si := splitInfo(1, 1); math.Abs(si-1) > 1e-12 {
		t.Fatalf("splitInfo(1,1) = %v, want 1", si)
	}
	if si := splitInfo(1, 0); si != 0 {
		t.Fatalf("degenerate splitInfo = %v", si)
	}
}

func TestBinarySplitScoreInvalid(t *testing.T) {
	if _, ok := binarySplitScore(Entropy, []float64{1}, []float64{0}, 1, 0, 0); ok {
		t.Fatal("empty right subset should be invalid")
	}
	if _, ok := binarySplitScore(Measure(42), []float64{1}, []float64{1}, 1, 1, 0); ok {
		t.Fatal("unknown measure should be invalid")
	}
}

func TestAttrViewPrefixSums(t *testing.T) {
	tuples := []*data.Tuple{
		{Num: []*pdf.PDF{pdf.MustNew([]float64{1, 3}, []float64{1, 1})}, Class: 0, Weight: 2},
		{Num: []*pdf.PDF{pdf.Point(2)}, Class: 1, Weight: 1},
	}
	v := buildAttrView(tuples, 0, 2)
	if v == nil {
		t.Fatal("nil view")
	}
	if len(v.xs) != 3 {
		t.Fatalf("distinct locations = %d, want 3", len(v.xs))
	}
	out := make([]float64, 2)
	if nL := leftCounts(v, 1, out); math.Abs(nL-1) > 1e-12 || math.Abs(out[0]-1) > 1e-12 {
		t.Fatalf("leftCounts(1) = %v total %v", out, nL)
	}
	if nL := leftCounts(v, 2, out); math.Abs(nL-2) > 1e-12 || math.Abs(out[1]-1) > 1e-12 {
		t.Fatalf("leftCounts(2) = %v total %v", out, nL)
	}
	if nL := leftCounts(v, 0.5, out); nL != 0 {
		t.Fatalf("leftCounts below min = %v", nL)
	}
	if tot := massIn(v, 1, 3, out); math.Abs(tot-2) > 1e-12 {
		t.Fatalf("massIn(1,3] = %v, want 2", tot)
	}
	if len(v.ends) != 4 { // 1, 2, 3 and... ends are {1,3} ∪ {2,2} = {1,2,3}
		if len(v.ends) != 3 {
			t.Fatalf("ends = %v", v.ends)
		}
	}
}

func TestAttrViewMissingValues(t *testing.T) {
	tuples := []*data.Tuple{
		{Num: []*pdf.PDF{nil}, Class: 0, Weight: 1},
	}
	if v := buildAttrView(tuples, 0, 1); v != nil {
		t.Fatal("all-missing attribute should give nil view")
	}
}

func TestClassify(t *testing.T) {
	if classify([]float64{0, 0}) != emptyInterval {
		t.Fatal("empty misclassified")
	}
	if classify([]float64{0, 1}) != homogeneousInterval {
		t.Fatal("homogeneous misclassified")
	}
	if classify([]float64{1, 1}) != heterogeneousInterval {
		t.Fatal("heterogeneous misclassified")
	}
}

func TestSampleIndices(t *testing.T) {
	idx := sampleIndices(25, 10)
	want := []int{0, 10, 20, 24}
	if len(idx) != len(want) {
		t.Fatalf("sampleIndices(25,10) = %v", idx)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("sampleIndices(25,10) = %v, want %v", idx, want)
		}
	}
	if got := sampleIndices(0, 10); got != nil {
		t.Fatalf("sampleIndices(0) = %v", got)
	}
	if got := sampleIndices(1, 10); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sampleIndices(1) = %v", got)
	}
	// Exact multiple: last element must not duplicate.
	if got := sampleIndices(21, 10); got[len(got)-1] != 20 || len(got) != 3 {
		t.Fatalf("sampleIndices(21,10) = %v", got)
	}
}

// TestStrategiesAgree is the central safety property: every pruning
// strategy must return a split whose score equals the exhaustive optimum
// (Theorems 1-3 and the §5.2 bounds are "safe pruning").
func TestStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, measure := range []Measure{Entropy, Gini} {
		for trial := 0; trial < 25; trial++ {
			tuples := randomDataset(rng, 4+rng.Intn(20), 1+rng.Intn(3), 2+rng.Intn(3), 1+rng.Intn(8))
			ref := NewFinder(Config{Measure: measure, Strategy: UDT}).Best(tuples, len(tuples[0].Num), 5)
			for _, strat := range []Strategy{BP, LP, GP, ES} {
				got := NewFinder(Config{Measure: measure, Strategy: strat}).Best(tuples, len(tuples[0].Num), 5)
				if got.Found != ref.Found {
					t.Fatalf("%v/%v trial %d: Found=%v, exhaustive Found=%v", measure, strat, trial, got.Found, ref.Found)
				}
				if ref.Found && math.Abs(got.Score-ref.Score) > 1e-9 {
					t.Fatalf("%v/%v trial %d: score %v != exhaustive %v (z=%v vs %v, attr %d vs %d)",
						measure, strat, trial, got.Score, ref.Score, got.Z, ref.Z, got.Attr, ref.Attr)
				}
			}
		}
	}
}

// TestGainRatioStrategiesAgree checks the §7.4 gain-ratio variant, where
// homogeneous intervals may not be skipped but empty ones may.
func TestGainRatioStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		tuples := randomDataset(rng, 4+rng.Intn(16), 1+rng.Intn(2), 2+rng.Intn(2), 1+rng.Intn(6))
		ref := NewFinder(Config{Measure: GainRatio, Strategy: UDT}).Best(tuples, len(tuples[0].Num), 4)
		for _, strat := range []Strategy{BP, LP, GP, ES} {
			got := NewFinder(Config{Measure: GainRatio, Strategy: strat}).Best(tuples, len(tuples[0].Num), 4)
			if got.Found != ref.Found {
				t.Fatalf("gainratio/%v trial %d: Found mismatch", strat, trial)
			}
			if ref.Found && math.Abs(got.Score-ref.Score) > 1e-9 {
				t.Fatalf("gainratio/%v trial %d: score %v != exhaustive %v", strat, trial, got.Score, ref.Score)
			}
		}
	}
}

// TestPruningReducesWork verifies the paper's efficiency ordering on a
// dataset large enough for pruning to engage: evaluations(ES) <= ... is not
// strictly guaranteed per instance, but every pruned strategy must do at
// most the exhaustive count, and BP must never exceed UDT.
func TestPruningReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tuples := randomDataset(rng, 60, 3, 3, 20)
	counts := map[Strategy]int64{}
	for _, strat := range []Strategy{UDT, BP, LP, GP, ES} {
		fd := NewFinder(Config{Measure: Entropy, Strategy: strat})
		fd.Best(tuples, 3, 3)
		counts[strat] = fd.Stats().EntropyCalcs()
	}
	if counts[BP] > counts[UDT] {
		t.Fatalf("BP did more work than UDT: %d > %d", counts[BP], counts[UDT])
	}
	if counts[LP] > counts[BP] {
		t.Fatalf("LP did more work than BP: %d > %d", counts[LP], counts[BP])
	}
	if counts[GP] > counts[LP] {
		t.Fatalf("GP did more work than LP: %d > %d", counts[GP], counts[LP])
	}
	if counts[ES] > counts[UDT] {
		t.Fatalf("ES did more work than UDT: %d > %d", counts[ES], counts[UDT])
	}
	if counts[GP] == counts[UDT] {
		t.Fatal("GP pruned nothing on a dataset designed to be prunable")
	}
}

// TestEntropyBoundIsSafe verifies empirically that Eq. (3) really lower
// bounds the entropy of every split point inside a heterogeneous interval.
func TestEntropyBoundIsSafe(t *testing.T) {
	testBoundIsSafe(t, Entropy)
}

// TestGiniBoundIsSafe does the same for Eq. (4).
func TestGiniBoundIsSafe(t *testing.T) {
	testBoundIsSafe(t, Gini)
}

func testBoundIsSafe(t *testing.T, m Measure) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		tuples := randomDataset(rng, 4+rng.Intn(12), 1, 2+rng.Intn(3), 2+rng.Intn(6))
		nClasses := 5
		v := buildAttrView(tuples, 0, nClasses)
		if v == nil || len(v.ends) < 2 {
			continue
		}
		f := NewFinder(Config{Measure: m, Strategy: UDT})
		f.ensureScratch(nClasses)
		for i := 0; i+1 < len(v.ends); i++ {
			a, b := v.ends[i], v.ends[i+1]
			lo, hi := interiorRange(v, a, b)
			if lo >= hi {
				continue
			}
			massIn(v, a, b, f.kBuf)
			if classify(f.kBuf) != heterogeneousInterval {
				continue
			}
			nLa := leftCounts(v, a, f.nBuf)
			_ = nLa
			for c := range f.mBuf {
				f.mBuf[c] = v.totals[c] - f.nBuf[c] - f.kBuf[c]
			}
			in := boundInput{n: f.nBuf, k: f.kBuf, m: f.mBuf}
			var bound float64
			if m == Entropy {
				bound = entropyLowerBound(in)
			} else {
				bound = giniLowerBound(in)
			}
			left := make([]float64, nClasses)
			right := make([]float64, nClasses)
			for x := lo; x < hi; x++ {
				nL := leftCounts(v, v.xs[x], left)
				for c := range right {
					right[c] = v.totals[c] - left[c]
				}
				score, ok := binarySplitScore(m, left, right, nL, v.total-nL, 0)
				if !ok {
					continue
				}
				if bound > score+1e-9 {
					t.Fatalf("trial %d %v: bound %v exceeds interior score %v at z=%v (interval (%v,%v])",
						trial, m, bound, score, v.xs[x], a, b)
				}
			}
		}
	}
}

func TestCategoricalScore(t *testing.T) {
	// A perfectly informative categorical attribute.
	tuples := []*data.Tuple{
		{Cat: []data.CatDist{{1, 0}}, Class: 0, Weight: 1},
		{Cat: []data.CatDist{{1, 0}}, Class: 0, Weight: 1},
		{Cat: []data.CatDist{{0, 1}}, Class: 1, Weight: 1},
	}
	f := NewFinder(Config{Measure: Entropy})
	score, ok := f.CategoricalScore(tuples, 0, 2, 2)
	if !ok {
		t.Fatal("split should be valid")
	}
	if score > 1e-12 {
		t.Fatalf("perfect split score = %v, want 0", score)
	}
	if f.Stats().SplitEvals != 1 {
		t.Fatalf("SplitEvals = %d, want 1", f.Stats().SplitEvals)
	}
}

func TestCategoricalScoreFractional(t *testing.T) {
	// A tuple spread 50/50 over the domain contributes to both buckets.
	tuples := []*data.Tuple{
		{Cat: []data.CatDist{{0.5, 0.5}}, Class: 0, Weight: 1},
		{Cat: []data.CatDist{{0, 1}}, Class: 1, Weight: 1},
	}
	f := NewFinder(Config{Measure: Entropy})
	score, ok := f.CategoricalScore(tuples, 0, 2, 2)
	if !ok {
		t.Fatal("split should be valid")
	}
	// Bucket 0: pure class 0 (mass 0.5). Bucket 1: 0.5 class 0 + 1 class 1.
	want := 1.5 / 2 * entropyOf([]float64{0.5, 1}, 1.5)
	if math.Abs(score-want) > 1e-9 {
		t.Fatalf("score = %v, want %v", score, want)
	}
}

func TestCategoricalScoreDegenerate(t *testing.T) {
	f := NewFinder(Config{Measure: Entropy})
	// All mass in one bucket: useless split.
	tuples := []*data.Tuple{
		{Cat: []data.CatDist{{1, 0}}, Class: 0, Weight: 1},
		{Cat: []data.CatDist{{1, 0}}, Class: 1, Weight: 1},
	}
	if _, ok := f.CategoricalScore(tuples, 0, 2, 2); ok {
		t.Fatal("single-bucket split should be invalid")
	}
	// Missing values only.
	missing := []*data.Tuple{{Cat: []data.CatDist{nil}, Class: 0, Weight: 1}}
	if _, ok := f.CategoricalScore(missing, 0, 2, 2); ok {
		t.Fatal("all-missing split should be invalid")
	}
}

func TestCategoricalScoreGainRatio(t *testing.T) {
	tuples := []*data.Tuple{
		{Cat: []data.CatDist{{1, 0}}, Class: 0, Weight: 1},
		{Cat: []data.CatDist{{0, 1}}, Class: 1, Weight: 1},
	}
	f := NewFinder(Config{Measure: GainRatio})
	score, ok := f.CategoricalScore(tuples, 0, 2, 2)
	if !ok {
		t.Fatal("split should be valid")
	}
	// Gain = 1 bit, split info = 1 bit, so gain ratio 1, score -1.
	if math.Abs(score+1) > 1e-9 {
		t.Fatalf("gain-ratio score = %v, want -1", score)
	}
}

func TestBestNoValidSplit(t *testing.T) {
	// One tuple: any split leaves one side empty.
	tuples := []*data.Tuple{{Num: []*pdf.PDF{pdf.Point(1)}, Class: 0, Weight: 1}}
	for _, strat := range []Strategy{UDT, BP, LP, GP, ES} {
		res := NewFinder(Config{Measure: Entropy, Strategy: strat}).Best(tuples, 1, 1)
		if res.Found {
			t.Fatalf("%v: found a split on a single point tuple", strat)
		}
	}
}

func TestBestGainComputation(t *testing.T) {
	// Perfectly separable points: gain must equal the parent entropy (1 bit).
	tuples := []*data.Tuple{
		{Num: []*pdf.PDF{pdf.Point(0)}, Class: 0, Weight: 1},
		{Num: []*pdf.PDF{pdf.Point(1)}, Class: 1, Weight: 1},
	}
	res := NewFinder(Config{Measure: Entropy, Strategy: UDT}).Best(tuples, 1, 2)
	if !res.Found {
		t.Fatal("no split found")
	}
	if math.Abs(res.Gain-1) > 1e-12 || math.Abs(res.Score) > 1e-12 {
		t.Fatalf("gain = %v score = %v, want 1 and 0", res.Gain, res.Score)
	}
	if res.Z != 0 {
		t.Fatalf("split point = %v, want 0", res.Z)
	}
}

func TestStatsAccumulate(t *testing.T) {
	var s Stats
	s.Add(Stats{SplitEvals: 2, BoundEvals: 3, PrunedIntervals: 1, PrunedCoarse: 4})
	s.Add(Stats{SplitEvals: 1})
	if s.SplitEvals != 3 || s.BoundEvals != 3 || s.PrunedIntervals != 1 || s.PrunedCoarse != 4 {
		t.Fatalf("Stats.Add wrong: %+v", s)
	}
	if s.EntropyCalcs() != 6 {
		t.Fatalf("EntropyCalcs = %d, want 6", s.EntropyCalcs())
	}
}

func TestStrategyAndMeasureStrings(t *testing.T) {
	for s, want := range map[Strategy]string{UDT: "UDT", BP: "UDT-BP", LP: "UDT-LP", GP: "UDT-GP", ES: "UDT-ES"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	if Strategy(9).String() == "" || Measure(9).String() == "" {
		t.Fatal("unknown enums should still print")
	}
	for m, want := range map[Measure]string{Entropy: "entropy", Gini: "gini", GainRatio: "gainratio"} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestFinderConfigDefaults(t *testing.T) {
	f := NewFinder(Config{Strategy: ES})
	if f.Config().EndPointFrac != 0.1 {
		t.Fatalf("default EndPointFrac = %v, want 0.1", f.Config().EndPointFrac)
	}
	f2 := NewFinder(Config{Strategy: ES, EndPointFrac: 0.25})
	if f2.Config().EndPointFrac != 0.25 {
		t.Fatal("explicit EndPointFrac overridden")
	}
}

func TestResetStats(t *testing.T) {
	tuples := randomDataset(rand.New(rand.NewSource(3)), 10, 1, 2, 4)
	f := NewFinder(Config{Measure: Entropy, Strategy: UDT})
	f.Best(tuples, 1, 2)
	if f.Stats().SplitEvals == 0 {
		t.Fatal("no work recorded")
	}
	f.ResetStats()
	if f.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

// TestResetReaimsFinder: a finder reset to a new configuration, its
// parallel workers included, searches as a new finder with that
// configuration does, after searches of another one left their buffers
// and counters behind. (A parallel search's counters depend on timing, so
// only serial ones are compared.)
func TestResetReaimsFinder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big := randomDataset(rng, 200, 3, 3, 12)
	small := randomDataset(rng, 30, 3, 3, 8)
	f := NewFinder(Config{Measure: Gini, Strategy: ES, Workers: 4})
	f.Best(big, 3, 3)
	f.Best(small, 3, 3)
	for _, cfg := range []Config{
		{Measure: Entropy, Strategy: GP, Workers: 4},
		{Measure: GainRatio, Strategy: ES, EndPoints: PercentileEnds},
		{Measure: Entropy, Strategy: LP},
	} {
		for _, tuples := range [][]*data.Tuple{big, small} {
			f.Reset(cfg)
			fresh := NewFinder(cfg)
			got, want := f.Best(tuples, 3, 3), fresh.Best(tuples, 3, 3)
			sameStats := cfg.Workers > 1 || f.Stats() == fresh.Stats()
			if got != want || !sameStats || f.Config() != fresh.Config() {
				t.Fatalf("%+v, %d tuples: reset finder %+v %+v, new finder %+v %+v",
					cfg, len(tuples), got, f.Stats(), want, fresh.Stats())
			}
		}
	}
}

// TestTheorem3Concavity verifies the mathematical claim behind Theorem 3:
// when the per-class tuple counts grow linearly across an interval, the
// split dispersion H(t) is concave in t, so its minimum over the interval
// is attained at an end point. (The discrete pdf representation itself
// never satisfies the linearity premise exactly — mass moves in steps — so
// the implementation always evaluates heterogeneous interiors; the theorem
// is what justifies end-point-only search under analytic uniform pdfs.)
func TestTheorem3Concavity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []Measure{Entropy, Gini} {
		for trial := 0; trial < 50; trial++ {
			classes := 2 + rng.Intn(4)
			n := make([]float64, classes)      // counts left of the interval
			lambda := make([]float64, classes) // linear growth rates
			mr := make([]float64, classes)     // counts right of the interval
			for c := range n {
				n[c] = rng.Float64() * 5
				lambda[c] = rng.Float64() * 5
				mr[c] = rng.Float64() * 5
			}
			score := func(tt float64) float64 {
				left := make([]float64, classes)
				right := make([]float64, classes)
				var nL, nR float64
				for c := range n {
					left[c] = n[c] + lambda[c]*tt
					right[c] = mr[c] + lambda[c]*(1-tt)
					nL += left[c]
					nR += right[c]
				}
				s, ok := binarySplitScore(m, left, right, nL, nR, 0)
				if !ok {
					t.Fatalf("degenerate synthetic split")
				}
				return s
			}
			endMin := math.Min(score(0), score(1))
			for tt := 0.01; tt < 1; tt += 0.01 {
				if s := score(tt); s < endMin-1e-9 {
					t.Fatalf("%v trial %d: interior score %v at t=%v beats end points %v (H not concave?)",
						m, trial, s, tt, endMin)
				}
			}
		}
	}
}
