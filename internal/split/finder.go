package split

import (
	"fmt"
	"math"

	"udt/internal/data"
)

// Strategy selects the candidate-pruning algorithm of §5.
type Strategy int

// Search strategies, in the paper's ascending order of pruning power.
const (
	UDT Strategy = iota // exhaustive: every pdf sample point (§4.2)
	BP                  // Basic Pruning: skip empty/homogeneous interiors (Thms 1-2)
	LP                  // Local Pruning: bound heterogeneous intervals per attribute (§5.2)
	GP                  // Global Pruning: bound with a global threshold (§5.2)
	ES                  // End-point Sampling on top of GP (§5.3)
)

func (s Strategy) String() string {
	switch s {
	case UDT:
		return "UDT"
	case BP:
		return "UDT-BP"
	case LP:
		return "UDT-LP"
	case GP:
		return "UDT-GP"
	case ES:
		return "UDT-ES"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Stats counts the work performed by split searches. SplitEvals counts
// dispersion evaluations at candidate split points and BoundEvals counts
// interval lower-bound computations; their sum is the paper's "number of
// entropy calculations" metric (§6.2, which states a bound costs about the
// same as an entropy evaluation). Indexed counts the pdf sample points
// merged into attribute views, the index-building work the paper's metric
// leaves out: every strategy indexes each attribute once, and a serial GP
// or ES search then indexes the interiors of the intervals that survive
// pruning once more.
type Stats struct {
	SplitEvals      int64
	BoundEvals      int64
	PrunedIntervals int64
	PrunedCoarse    int64
	Indexed         int64
}

// EntropyCalcs returns the paper's cost metric: split evaluations plus
// bound computations.
func (s Stats) EntropyCalcs() int64 { return s.SplitEvals + s.BoundEvals }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.SplitEvals += other.SplitEvals
	s.BoundEvals += other.BoundEvals
	s.PrunedIntervals += other.PrunedIntervals
	s.PrunedCoarse += other.PrunedCoarse
	s.Indexed += other.Indexed
}

// Config parameterises a Finder.
type Config struct {
	Measure      Measure
	Strategy     Strategy
	EndPointFrac float64      // ES end-point sample fraction; 0 means the paper's 10%
	EndPoints    EndPointMode // interval end-point derivation (§7.3)
	Percentiles  int          // per-class percentile count for PercentileEnds; 0 means 9
	Workers      int          // concurrent workers within one Best call; <= 1 means serial
}

// Result is the outcome of a best-split search over the numeric attributes.
type Result struct {
	Attr  int     // winning attribute index
	Z     float64 // split point z_n
	Score float64 // minimised dispersion H(z, A_j) (negated gain ratio for GainRatio)
	Gain  float64 // parent impurity minus Score (the gain ratio itself for GainRatio)
	Found bool
}

// Finder locates optimal split points. It is not safe for concurrent use;
// create one Finder per goroutine. When Config.Workers > 1 a Finder fans
// one Best call out over a private pool of worker finders (see parallel.go)
// — the Finder itself must still be driven from a single goroutine.
type Finder struct {
	cfg   Config
	stats Stats

	// shared, when non-nil, is the concurrently updated global pruning
	// threshold of an in-flight parallel search (the §5.2 GP threshold
	// shared across workers). It only ever tightens bound pruning; it
	// never affects which split is returned.
	shared *atomicScore

	// workers are the cached per-worker finders of the parallel search.
	// Each owns private scratch and stats, folded into the parent after
	// every parallel region, so the hot path takes no locks.
	workers []*Finder

	// index builds attribute views in buffers the finder keeps across
	// attributes and nodes. The serial search holds at most one full view
	// at a time, live, plus every attribute's end-point index in sums, and
	// indexes a surviving interval's interior into inner; the parallel
	// search holds a full view and an end-point index per attribute.
	index viewBuilder
	live  attrView
	inner attrView
	views []attrView
	sums  []endIndex

	// node is the serial search's tuples while it runs, from which an
	// end-point index without a full view indexes interiors.
	node []*data.Tuple

	// scratch buffers reused across evaluations
	numClasses int
	left       []float64
	right      []float64
	kBuf       []float64
	nBuf       []float64
	mBuf       []float64
}

// NewFinder returns a Finder for the given configuration.
func NewFinder(cfg Config) *Finder {
	f := new(Finder)
	f.Reset(cfg)
	return f
}

// Reset aims f at the configuration cfg and zeroes its work counters. It
// keeps f's buffers, so a finder reused across searches and builds stops
// allocating once it has indexed the largest node it meets.
func (f *Finder) Reset(cfg Config) {
	if cfg.EndPointFrac <= 0 || cfg.EndPointFrac > 1 {
		cfg.EndPointFrac = 0.1
	}
	f.cfg = cfg
	f.stats = Stats{}
	cfg.Workers = 0
	for _, w := range f.workers {
		w.Reset(cfg)
	}
}

// Config returns the finder's configuration.
func (f *Finder) Config() Config { return f.cfg }

// Stats returns the accumulated work counters.
func (f *Finder) Stats() Stats { return f.stats }

// ResetStats zeroes the work counters.
func (f *Finder) ResetStats() { f.stats = Stats{} }

func (f *Finder) ensureScratch(numClasses int) {
	if f.numClasses != numClasses {
		f.numClasses = numClasses
		f.left = make([]float64, numClasses)
		f.right = make([]float64, numClasses)
		f.kBuf = make([]float64, numClasses)
		f.nBuf = make([]float64, numClasses)
		f.mBuf = make([]float64, numClasses)
	}
}

// scoreEps breaks ties conservatively: a bound only prunes when it cannot
// hide a strictly better optimum.
const scoreEps = 1e-12

// Best finds the optimal (attribute, split point) over all numeric
// attributes for the given fractional tuples, using the configured strategy.
// All strategies return a split with the globally minimal dispersion; they
// differ only in how many evaluations Stats records. Found is false when no
// attribute admits a valid binary split.
//
// With Config.Workers > 1 the search runs on a worker pool (see
// parallel.go) and returns the identical Result — same attribute, split
// point and tie-breaking — as the serial search.
func (f *Finder) Best(tuples []*data.Tuple, numAttrs, numClasses int) Result {
	f.ensureScratch(numClasses)
	parentH := f.parentEntropy(tuples, numClasses)
	best := Result{Score: math.Inf(1)}

	if f.cfg.Workers > 1 && len(tuples) >= parallelMinTuples {
		f.bestParallel(tuples, numAttrs, numClasses, parentH, &best)
	} else {
		f.bestSerial(tuples, numAttrs, numClasses, parentH, &best)
	}

	if !best.Found {
		return best
	}
	if f.cfg.Measure == GainRatio {
		best.Gain = -best.Score
	} else {
		counts := make([]float64, numClasses)
		total := 0.0
		for _, t := range tuples {
			counts[t.Class] += t.Weight
			total += t.Weight
		}
		best.Gain = impurity(f.cfg.Measure, counts, total) - best.Score
	}
	return best
}

// bestSerial is the single-goroutine search over all strategies. It holds
// at most one attribute's full view at a time. The interval strategies
// keep each attribute's end-point index, so the two-phase ones (GP, ES)
// make every phase-2 decision from it and index only the interiors of the
// intervals that survive pruning.
func (f *Finder) bestSerial(tuples []*data.Tuple, numAttrs, numClasses int, parentH float64, best *Result) {
	f.node = tuples
	defer func() { f.node = nil }()
	switch f.cfg.Strategy {
	case BP, LP:
		f.eachEndIndex(tuples, numAttrs, numClasses, func(s *endIndex, j int) {
			f.evalEndPoints(s, j, parentH, best)
			f.evalIntervals(s, j, 0, len(s.xs)-1, parentH, f.cfg.Strategy == LP, best)
		})
	case GP:
		// Phase 1: end points of every attribute establish the global
		// pruning threshold. Phase 2: bound-prune heterogeneous intervals
		// against it.
		sums := f.eachEndIndex(tuples, numAttrs, numClasses, func(s *endIndex, j int) {
			f.evalEndPoints(s, j, parentH, best)
		})
		for j := range sums {
			if s := &sums[j]; len(s.xs) > 0 {
				f.evalIntervals(s, j, 0, len(s.xs)-1, parentH, true, best)
			}
		}
	case ES:
		f.bestES(tuples, numAttrs, numClasses, parentH, best)
	default: // UDT and unknown strategies: exhaustive
		for j := 0; j < numAttrs; j++ {
			if v := f.indexInto(&f.live, tuples, j, numClasses); v != nil {
				f.evalAllSamples(v, j, parentH, best)
			}
		}
	}
}

// indexInto indexes attribute j of tuples into v with the finder's
// buffers and counts the merged sample points. It returns v, or nil when no
// tuple carries a pdf for j.
func (f *Finder) indexInto(v *attrView, tuples []*data.Tuple, j, numClasses int) *attrView {
	n := f.index.build(v, tuples, j, numClasses)
	f.stats.Indexed += int64(n)
	if n == 0 {
		return nil
	}
	return v
}

// eachEndIndex indexes every numeric attribute in turn, keeps its
// end-point index in f.sums[j] and calls fn with it. BP and LP index into
// the finder's one live view, which stays the index's full view while fn
// runs. GP and ES read no full view after phase 1, so with domain end
// points, which are known before the merge, they index straight into the
// end-point index and build no full view at all. It returns the end-point
// indexes, which hold no full view afterwards, so their interiors are
// indexed on demand; one whose attribute no tuple carries has no end
// points, and fn is not called for it.
func (f *Finder) eachEndIndex(tuples []*data.Tuple, numAttrs, numClasses int, fn func(s *endIndex, j int)) []endIndex {
	direct := (f.cfg.Strategy == GP || f.cfg.Strategy == ES) && f.cfg.EndPoints == DomainEnds
	f.sums = resize(f.sums, numAttrs)
	for j := range f.sums {
		s := &f.sums[j]
		if direct {
			n := f.index.buildEnds(s, tuples, j, numClasses)
			f.stats.Indexed += int64(n)
			if n == 0 {
				s.xs = s.xs[:0]
				continue
			}
		} else {
			v := f.indexInto(&f.live, tuples, j, numClasses)
			if v == nil {
				s.xs = s.xs[:0]
				continue
			}
			s.summarize(v, f.endsFor(v))
		}
		fn(s, j)
		s.full = nil
	}
	return f.sums
}

// parentEntropy returns the parent node entropy needed by the gain-ratio
// measure; zero otherwise (unused).
func (f *Finder) parentEntropy(tuples []*data.Tuple, numClasses int) float64 {
	if f.cfg.Measure != GainRatio {
		return 0
	}
	counts := make([]float64, numClasses)
	total := 0.0
	for _, t := range tuples {
		counts[t.Class] += t.Weight
		total += t.Weight
	}
	return entropyOf(counts, total)
}

// evalCandidate scores splitting attribute j at v's location r and folds
// the outcome into best. It counts one split evaluation.
func (f *Finder) evalCandidate(v *attrView, j, r int, parentH float64, best *Result) {
	f.stats.SplitEvals++
	nL := v.leftOf(r, f.left)
	nR := v.total - nL
	for c := range f.right {
		f.right[c] = v.totals[c] - f.left[c]
	}
	score, ok := binarySplitScore(f.cfg.Measure, f.left, f.right, nL, nR, parentH)
	if !ok {
		return
	}
	if score < best.Score {
		*best = Result{Attr: j, Z: v.xs[r], Score: score, Found: true}
		if f.shared != nil {
			f.shared.update(score)
		}
	}
}

// evalAllSamples is the exhaustive UDT search: every distinct pdf sample
// location except the largest (which yields an empty right subset) is a
// candidate.
func (f *Finder) evalAllSamples(v *attrView, j int, parentH float64, best *Result) {
	for r := 0; r+1 < len(v.xs); r++ {
		f.evalCandidate(v, j, r, parentH, best)
	}
}

// evalEndPoints scores each end point of s (except the last, which gives
// an empty right subset).
func (f *Finder) evalEndPoints(s *endIndex, j int, parentH float64, best *Result) {
	for e := 0; e+1 < len(s.xs); e++ {
		f.evalCandidate(&s.attrView, j, e, parentH, best)
	}
}

// evalIntervals walks the fine intervals between consecutive end points
// e0..e1 of s, skipping empty and homogeneous interiors (Theorems 1-2; for
// gain ratio only empty interiors are skippable, §7.4) and, when useBound
// is true, bound-pruning the remaining intervals against the best score so
// far (§5.2). Interval interiors that survive are evaluated exhaustively.
func (f *Finder) evalIntervals(s *endIndex, j, e0, e1 int, parentH float64, useBound bool, best *Result) {
	for e := e0; e < e1; e++ {
		kTotal, skip := f.settled(s, e, e+1)
		if skip {
			continue
		}
		if useBound && f.pruneByBound(s, e, kTotal, parentH, best) {
			f.stats.PrunedIntervals++
			continue
		}
		v, lo, hi := f.interior(s, j, e)
		for r := lo; r < hi; r++ {
			f.evalCandidate(v, j, r, parentH, best)
		}
	}
}

// settled reports whether the interval between end points e0 < e1 of s
// needs no evaluation: it has no interior candidates, or Theorems 1-2
// settle it (no mass, or one class's mass; for gain ratio only an empty
// interval is settled, §7.4). Otherwise f.kBuf holds the interval's
// per-class masses and kTotal their sum.
func (f *Finder) settled(s *endIndex, e0, e1 int) (kTotal float64, skip bool) {
	if s.inside(e0, e1) == 0 {
		return 0, true
	}
	kTotal = s.massIn(e0, e1, f.kBuf)
	switch classify(f.kBuf) {
	case emptyInterval:
		return kTotal, true // Theorem 1
	case homogeneousInterval:
		return kTotal, f.cfg.Measure != GainRatio // Theorem 2
	}
	return kTotal, false
}

// interior returns a view whose locations lo..hi-1 are the locations
// strictly inside fine interval e of s, each with the full view's row: the
// full view itself while s holds it, else an index of that interior alone,
// built from the serial search's tuples into the finder's inner view.
func (f *Finder) interior(s *endIndex, j, e int) (v *attrView, lo, hi int) {
	if s.full != nil {
		return s.full, s.at[e], s.at[e+1] - 1
	}
	f.stats.Indexed += int64(f.index.interior(&f.inner, s, f.node, j, e))
	return &f.inner, 0, len(f.inner.xs)
}

// pruneThreshold returns the score interval bounds are compared against:
// the local best, tightened by the cross-worker shared threshold when a
// parallel search is in flight. ok is false when no threshold exists yet.
func (f *Finder) pruneThreshold(best *Result) (thr float64, ok bool) {
	thr = math.Inf(1)
	if best.Found {
		thr, ok = best.Score, true
	}
	if f.shared != nil {
		if g := f.shared.load(); g < thr {
			thr, ok = g, true
		}
	}
	return thr, ok
}

// pruneByBound reports whether the interval of s starting at end point e0
// can be discarded because its dispersion lower bound is no better than the
// best score found so far. It counts one bound evaluation. f.kBuf must
// already hold the interval's per-class masses.
func (f *Finder) pruneByBound(s *endIndex, e0 int, kTotal, parentH float64, best *Result) bool {
	thr, haveThr := f.pruneThreshold(best)
	if !haveThr {
		return false
	}
	f.stats.BoundEvals++
	nLa := s.leftOf(e0, f.nBuf)
	for c := range f.mBuf {
		f.mBuf[c] = s.totals[c] - f.nBuf[c] - f.kBuf[c]
		if f.mBuf[c] < 0 {
			f.mBuf[c] = 0
		}
	}
	in := boundInput{n: f.nBuf, k: f.kBuf, m: f.mBuf}
	var (
		bound float64
		ok    bool
	)
	switch f.cfg.Measure {
	case Entropy:
		bound, ok = entropyLowerBound(in), true
	case Gini:
		bound, ok = giniLowerBound(in), true
	case GainRatio:
		bound, ok = gainRatioScoreBound(in, parentH, nLa, nLa+kTotal, s.total)
	}
	return ok && bound >= thr-scoreEps
}
