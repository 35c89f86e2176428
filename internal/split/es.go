package split

import (
	"math"

	"udt/internal/data"
)

// esStride returns the end-point sampling stride implied by EndPointFrac.
func (f *Finder) esStride() int {
	stride := int(math.Ceil(1 / f.cfg.EndPointFrac))
	if stride < 1 {
		stride = 1
	}
	return stride
}

// bestES implements the End-point Sampling strategy of §5.3 (UDT-ES): take
// a sample of each attribute's end points, establish a global pruning
// threshold from the sampled entropies, bound-prune the coarse intervals
// the sample induces, and only expand the surviving coarse intervals back
// to their fine end points and intervals. End-point entropies are computed
// at most once (the sampled ones in phase 1; interior fine ones on
// expansion).
func (f *Finder) bestES(tuples []*data.Tuple, numAttrs, numClasses int, parentH float64, best *Result) {
	stride := f.esStride()

	// Phase 1: evaluate the sampled end points of every attribute, which
	// tightens best into the global threshold of §5.2.
	f.eachView(tuples, numAttrs, numClasses, func(v *attrView, j int) {
		ends := f.endsFor(v)
		for _, i := range sampleIndices(len(ends), stride) {
			if i+1 < len(ends) { // the largest end point is no valid split
				f.evalCandidate(v, j, ends[i], parentH, best)
			}
		}
	})

	// Phase 2: coarse intervals between consecutive sampled end points.
	f.eachView(tuples, numAttrs, numClasses, func(v *attrView, j int) {
		ends := f.endsFor(v)
		sampled := sampleIndices(len(ends), stride)
		f.esExpandRange(v, j, ends, sampled, 0, len(sampled)-1, parentH, best)
	})
}

// esExpandRange processes the coarse intervals formed by the sampled
// end-point indices s in [s0, s1): each is skipped when empty or
// homogeneous (Theorems 1-2), bound-pruned against the global threshold
// (§5.2), and otherwise expanded back to its fine end points and intervals
// (§5.3). It is the unit of work the parallel search batches per worker.
func (f *Finder) esExpandRange(v *attrView, j int, ends []float64, sampled []int, s0, s1 int, parentH float64, best *Result) {
	for s := s0; s < s1; s++ {
		loEnd, hiEnd := sampled[s], sampled[s+1]
		a, b := ends[loEnd], ends[hiEnd]
		lo, hi := v.interiorRange(a, b)
		if lo >= hi {
			continue // nothing strictly inside the coarse interval
		}
		kTotal := v.massIn(a, b, f.kBuf)
		kind := classify(f.kBuf)
		if kind == emptyInterval {
			continue // Theorem 1 covers the fine end points inside too
		}
		if kind == homogeneousInterval && f.cfg.Measure != GainRatio {
			continue // Theorem 2 likewise
		}
		if f.pruneByBound(v, a, b, kTotal, parentH, best) {
			f.stats.PrunedCoarse++
			continue
		}
		// Expansion: the fine end points strictly inside the coarse
		// interval become candidates (they were not sampled), then the
		// fine intervals are pruned individually.
		for e := loEnd + 1; e < hiEnd; e++ {
			f.evalCandidate(v, j, ends[e], parentH, best)
		}
		f.evalIntervals(v, j, ends[loEnd:hiEnd+1], parentH, true, best)
	}
}

// sampleIndices returns every stride-th index of [0, n), always including
// the first and last so the coarse intervals cover the whole domain.
func sampleIndices(n, stride int) []int {
	if n == 0 {
		return nil
	}
	idx := make([]int, 0, n/stride+2)
	for i := 0; i < n; i += stride {
		idx = append(idx, i)
	}
	if idx[len(idx)-1] != n-1 {
		idx = append(idx, n-1)
	}
	return idx
}
