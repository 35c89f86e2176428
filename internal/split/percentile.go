package split

import "sort"

// EndPointMode selects how interval end points are derived (§7.3).
type EndPointMode int

const (
	// DomainEnds uses the pdf domain bounds of the tuples (the Q_j of
	// §5.1) — the default, and exact for bounded pdfs.
	DomainEnds EndPointMode = iota
	// PercentileEnds uses the §7.3 "artificial end points": per class, the
	// 10th..90th percentile locations of the class's cumulative tuple
	// count, plus the global extremes. Useful when pdfs are very wide (or
	// conceptually unbounded) and domain bounds induce too few, too-large
	// intervals. Pruning safety is unaffected: Theorems 1-2 and the Eq. (3)
	// bound hold for any interval partition.
	PercentileEnds
)

func (m EndPointMode) String() string {
	if m == PercentileEnds {
		return "percentile"
	}
	return "domain"
}

// endsFor returns the interval end points for the view under the
// configured mode.
func (f *Finder) endsFor(v *attrView) []float64 {
	if f.cfg.EndPoints != PercentileEnds {
		return v.ends
	}
	n := f.cfg.Percentiles
	if n <= 0 {
		n = 9 // the paper's 10%, 20%, ..., 90%
	}
	ends := make([]float64, 0, n*len(v.totals)+2)
	// Global extremes guarantee the intervals cover every candidate.
	ends = append(ends, v.xs[0], v.xs[len(v.xs)-1])
	for c, total := range v.totals {
		if total <= 0 {
			continue
		}
		for i := 1; i <= n; i++ {
			target := total * float64(i) / float64(n+1)
			// Smallest location where the class's cumulative count
			// reaches the target.
			idx := sort.Search(len(v.xs), func(r int) bool { return v.prefix(r + 1)[c] >= target })
			if idx >= len(v.xs) {
				idx = len(v.xs) - 1
			}
			ends = append(ends, v.xs[idx])
		}
	}
	sort.Float64s(ends)
	dedup := ends[:0]
	for i, e := range ends {
		if i == 0 || e != dedup[len(dedup)-1] {
			dedup = append(dedup, e)
		}
	}
	return dedup
}
