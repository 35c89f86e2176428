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
	sums := f.eachEndIndex(tuples, numAttrs, numClasses, func(s *endIndex, j int) {
		for _, e := range sampleIndices(len(s.xs), stride) {
			if e+1 < len(s.xs) { // the largest end point is no valid split
				f.evalCandidate(&s.attrView, j, e, parentH, best)
			}
		}
	})

	// Phase 2: coarse intervals between consecutive sampled end points.
	for j := range sums {
		if s := &sums[j]; len(s.xs) > 0 {
			sampled := sampleIndices(len(s.xs), stride)
			f.esExpandRange(s, j, sampled, 0, len(sampled)-1, parentH, best)
		}
	}
}

// esExpandRange processes the coarse intervals between the sampled end
// points sampled[k] and sampled[k+1] of s, for k in [s0, s1): each is
// skipped when it has no interior or is empty or homogeneous (Theorems
// 1-2), bound-pruned against the global threshold
// (§5.2), and otherwise expanded back to its fine end points and intervals
// (§5.3). It is the unit of work the parallel search batches per worker.
func (f *Finder) esExpandRange(s *endIndex, j int, sampled []int, s0, s1 int, parentH float64, best *Result) {
	for k := s0; k < s1; k++ {
		loEnd, hiEnd := sampled[k], sampled[k+1]
		kTotal, skip := f.settled(s, loEnd, hiEnd)
		if skip {
			continue // so are the fine end points inside
		}
		if f.pruneByBound(s, loEnd, kTotal, parentH, best) {
			f.stats.PrunedCoarse++
			continue
		}
		// Expansion: the fine end points strictly inside the coarse
		// interval become candidates (they were not sampled), then the
		// fine intervals are pruned individually.
		for e := loEnd + 1; e < hiEnd; e++ {
			f.evalCandidate(&s.attrView, j, e, parentH, best)
		}
		f.evalIntervals(s, j, loEnd, hiEnd, parentH, true, best)
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
