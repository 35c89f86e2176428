package split

import (
	"slices"
	"sort"

	"udt/internal/data"
)

// attrView is the per-attribute search index: the distinct pdf sample
// locations of all tuples with per-class cumulative weighted mass, plus the
// distinct pdf end points (the Q_j of §5.1). Prefix sums make every
// class-count query — and hence every entropy evaluation — O(|C|).
type attrView struct {
	xs     []float64 // distinct sample locations, ascending
	cum    []float64 // row r (see prefix) = per-class weighted mass at xs[:r]
	totals []float64 // per-class total weighted mass
	total  float64   // overall mass
	ends   []float64 // distinct pdf end points (Q_j), ascending
}

// prefix returns row r of cum: the per-class weighted mass at the r
// smallest locations, all zero for r = 0. Rows are laid out one after
// another, so a query reads one contiguous row.
func (v *attrView) prefix(r int) []float64 {
	k := len(v.totals)
	return v.cum[r*k : r*k+k]
}

// event is one weighted pdf sample point.
type event struct {
	x     float64
	mass  float64
	class int
}

// viewBuilder owns the buffers attribute views are indexed in. It keeps
// them from one attribute and one node to the next, so a tree build stops
// allocating for its views once it has indexed the largest node's.
//
// Every pdf stores its sample locations in increasing order, and
// pdf.SplitAt keeps each piece of a straddling pdf as a prefix or suffix of
// them, so at every node an attribute's events arrive as one sorted run per
// tuple. The builder merges those runs instead of sorting the events: the
// presorted attribute lists of SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996)
// and SPRINT (Shafer, Agrawal & Mehta, VLDB 1996), rebuilt per node.
type viewBuilder struct {
	events []event   // the node's events, one run per tuple, then merged
	spare  []event   // the other side of each merge pass
	runs   []int     // run r is events[runs[r]:runs[r+1]]
	sums   []float64 // an interior's running per-class sums
}

// build indexes numeric attribute j of the given fractional tuples into v,
// reusing v's storage, and returns the number of pdf sample points it
// merged. Tuples whose pdf for j is nil (missing) are skipped; 0 means no
// tuple carries mass for j, and v is then unusable.
//
// Events are ordered by location, ties by the tuple's position in tuples
// and then by sample index, so the per-class sums at a shared location
// always add up in the same order.
func (b *viewBuilder) build(v *attrView, tuples []*data.Tuple, j, numClasses int) int {
	events := b.merged(v, tuples, j, numClasses)
	if len(events) == 0 {
		return 0
	}
	v.total = v.fill(events, v.totals)
	return len(events)
}

// buildEnds indexes numeric attribute j of tuples straight into the
// end-point index s at the pdf domain end points, without a full view, and
// returns the number of pdf sample points it merged (0 leaves s unusable).
// The merged events are added up as build adds them, but a row is kept
// only at each end point, so s is what summarize makes of build's view.
func (b *viewBuilder) buildEnds(s *endIndex, tuples []*data.Tuple, j, numClasses int) int {
	events := b.merged(&s.attrView, tuples, j, numClasses)
	if len(events) == 0 {
		return 0
	}
	s.xs = append(s.xs[:0], s.ends...)
	s.at = resize(s.at, len(s.xs))
	s.cum = resize(s.cum, numClasses*(len(s.xs)+1))
	s.total = s.walk(events)
	s.full = nil
	return len(events)
}

// merged lays out attribute j of tuples as one sorted run of events per
// tuple and merges them; it returns the merged events, none when no tuple
// carries a pdf for j. It leaves v.ends holding the distinct pdf end
// points, ascending, and v.totals zeroed with one entry per class.
func (b *viewBuilder) merged(v *attrView, tuples []*data.Tuple, j, numClasses int) []event {
	n := 0
	for _, t := range tuples {
		if p := t.Num[j]; p != nil {
			n += p.NumSamples()
		}
	}
	if n == 0 {
		return nil
	}
	b.events, b.spare = resize(b.events, n), resize(b.spare, n)
	v.totals = resize(v.totals, numClasses)
	b.gather(v, tuples, j)
	clear(v.totals)
	sort.Float64s(v.ends)
	v.ends = dedupSorted(v.ends)
	return b.merge()
}

// interior indexes into v the locations of attribute j of tuples strictly
// inside fine interval e of s, that is between its end points s.xs[e] and
// s.xs[e+1], and returns the number of pdf sample points it merged; s must
// index the same tuples. v's rows are the full view's rows
// at those locations, its row 0 the full view's row at s.xs[e], and its
// class totals the node's, so a candidate in v scores as it would in the
// full view. The sums start from the stored row and add the interior's
// events in the full view's order (location, then the tuple's position,
// then sample index), so they are the same additions in the same order:
// every row is the full view's, bit for bit.
func (b *viewBuilder) interior(v *attrView, s *endIndex, tuples []*data.Tuple, j, e int) int {
	b.gatherInside(tuples, j, s.xs[e], s.xs[e+1])
	n := len(b.events)
	b.spare = resize(b.spare, n)
	b.sums = append(b.sums[:0], s.prefix(e+1)...)
	v.fill(b.merge(), b.sums)
	v.totals = append(v.totals[:0], s.totals...)
	v.total = s.total
	return n
}

// gather lays out each tuple's pdf samples for attribute j as one run of
// events, in tuple order, and collects the pdf end points into v.ends.
//
//udt:hotpath
func (b *viewBuilder) gather(v *attrView, tuples []*data.Tuple, j int) {
	b.runs = b.runs[:0]
	v.ends = v.ends[:0]
	k := 0
	for _, t := range tuples {
		p := t.Num[j]
		if p == nil {
			continue
		}
		b.runs = append(b.runs, k)
		for i := 0; i < p.NumSamples(); i++ {
			b.events[k] = event{x: p.X(i), mass: t.Weight * p.Mass(i), class: t.Class}
			k++
		}
		v.ends = append(v.ends, p.Min(), p.Max())
	}
	b.runs = append(b.runs, k)
}

// gatherInside lays out, as one run per tuple in tuple order, each tuple's
// pdf samples for attribute j strictly inside (lo, hi).
//
//udt:hotpath
func (b *viewBuilder) gatherInside(tuples []*data.Tuple, j int, lo, hi float64) {
	b.runs = b.runs[:0]
	b.events = b.events[:0]
	for _, t := range tuples {
		p := t.Num[j]
		if p == nil || p.Max() <= lo || p.Min() >= hi {
			continue
		}
		n := p.NumSamples()
		i := sort.Search(n, func(i int) bool { return p.X(i) > lo })
		if i == n || p.X(i) >= hi {
			continue
		}
		b.runs = append(b.runs, len(b.events))
		for ; i < n && p.X(i) < hi; i++ {
			b.events = append(b.events, event{x: p.X(i), mass: t.Weight * p.Mass(i), class: t.Class})
		}
	}
	b.runs = append(b.runs, len(b.events))
}

// merge sorts the gathered events by location with a stable bottom-up merge
// of adjacent runs, ping-ponging between events and spare, and returns the
// buffer holding the result. Stability gives ties the order of the runs,
// which is the tuples' order.
//
//udt:hotpath
func (b *viewBuilder) merge() []event {
	src, dst := b.events, b.spare
	for len(b.runs) > 2 {
		// Pair runs 2w and 2w+1 into run w; the boundaries shrink in
		// place, each written after the ones it overwrites were read.
		w := 0
		for r := 0; r+1 < len(b.runs); r += 2 {
			lo, mid := b.runs[r], b.runs[r+1]
			b.runs[w] = lo
			w++
			if r+2 == len(b.runs) { // an odd run out is carried over
				copy(dst[lo:mid], src[lo:mid])
				continue
			}
			hi := b.runs[r+2]
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		b.runs[w] = len(src)
		b.runs = b.runs[:w+1]
		src, dst = dst, src
	}
	return src
}

// mergeRuns merges the sorted runs a and b into dst, taking from a on ties.
//
//udt:hotpath
func mergeRuns(dst, a, b []event) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].x < a[i].x {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// fill sizes v for the distinct locations of the sorted events and
// accumulates them onto the running per-class sums in run, which row 0
// copies. It returns the events' total mass.
func (v *attrView) fill(events []event, run []float64) float64 {
	distinct := 0
	for i := range events {
		if i == 0 || events[i].x != events[i-1].x {
			distinct++
		}
	}
	v.xs = resize(v.xs, distinct)
	v.cum = resize(v.cum, len(run)*(distinct+1))
	return v.accumulate(events, run)
}

// accumulate fills v.xs with the distinct locations of the sorted events
// and v.cum with a row of the running per-class sums in run after each,
// row 0 holding run as it came in. It returns the events' total mass. v.xs
// and v.cum must already have their lengths for the distinct count.
//
//udt:hotpath
func (v *attrView) accumulate(events []event, run []float64) float64 {
	copy(v.cum, run)
	k := len(run)
	total := 0.0
	idx := -1
	for i, e := range events {
		if i == 0 || e.x != events[i-1].x {
			idx++
			v.xs[idx] = e.x
		}
		run[e.class] += e.mass
		total += e.mass
		if i == len(events)-1 || events[i+1].x != e.x {
			row := v.cum[(idx+1)*k : (idx+2)*k]
			for c, m := range run {
				row[c] = m
			}
		}
	}
	return total
}

// resize returns buf with length n. It keeps buf's array when that has
// room, and otherwise allocates a zeroed one without copying the contents.
func resize[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// leftOf fills out with the per-class mass at v's locations up to and
// including location r and returns its total: the left side of a split
// at v.xs[r].
func (v *attrView) leftOf(r int, out []float64) float64 {
	total := 0.0
	for c, m := range v.prefix(r + 1) {
		out[c] = m
		total += m
	}
	return total
}

// locIndex returns the number of sample locations <= x, i.e. the exclusive
// upper index of the left partition when splitting at x.
func (v *attrView) locIndex(x float64) int {
	return sort.Search(len(v.xs), func(i int) bool { return v.xs[i] > x })
}

// endIndex is one attribute's index at its interval end points. Phase 1 of
// a search fills it from the attribute's full view (summarize) or, for
// domain end points, straight from the merged events (buildEnds); every
// later decision reads it alone: which intervals have interior candidates,
// their per-class masses, Theorems 1-2, the bound, and the end points' own
// scores. Its embedded view's locations are the end points, and its row
// e+1 is the full view's row at end point e, so those decisions add and
// subtract exactly the floats the full view would. Only an interval that
// survives them needs its interior's rows (see Finder.interior).
type endIndex struct {
	attrView // xs: the end points; cum, totals, total: the full view's, at them

	// at[e] is the number of the full view's locations <= xs[e]. Every
	// end point is itself one of those locations (a pdf's first or last
	// sample, or a percentile location), so the locations strictly between
	// end points e0 < e1 are the full view's at[e0] to at[e1]-2.
	at []int

	// full is the attribute's full view while the search still holds it.
	// When it is nil an interior is indexed on demand.
	full *attrView
}

// summarize fills s with the rows of v at the end points ends, which must
// be ascending locations of v, and holds v as its full view. It keeps no
// reference to ends.
func (s *endIndex) summarize(v *attrView, ends []float64) {
	s.xs = append(s.xs[:0], ends...)
	s.totals = append(s.totals[:0], v.totals...)
	s.total = v.total
	s.at = resize(s.at, len(ends))
	s.cum = resize(s.cum, len(v.totals)*(len(ends)+1))
	copy(s.prefix(0), v.prefix(0))
	for e, x := range ends {
		s.at[e] = v.locIndex(x)
		copy(s.prefix(e+1), v.prefix(s.at[e]))
	}
	s.full = v
}

// walk adds up the sorted events as accumulate does, into s.totals, and
// keeps the running sums only at the end points: row e+1 after the last
// event at s.xs[e], with at[e] the distinct locations up to it. It returns
// the events' total mass. s.at and s.cum must already have their lengths.
//
//udt:hotpath
func (s *endIndex) walk(events []event) float64 {
	run := s.totals
	k := len(run)
	copy(s.cum, run) // row 0: nothing yet
	total := 0.0
	distinct, e := 0, 0
	for i, ev := range events {
		if i == 0 || ev.x != events[i-1].x {
			distinct++
		}
		run[ev.class] += ev.mass
		total += ev.mass
		if e < len(s.xs) && ev.x == s.xs[e] && (i == len(events)-1 || events[i+1].x != ev.x) {
			copy(s.cum[(e+1)*k:(e+2)*k], run)
			s.at[e] = distinct
			e++
		}
	}
	return total
}

// inside returns the number of the full view's locations strictly between
// end points e0 < e1: the interval's interior candidates.
func (s *endIndex) inside(e0, e1 int) int { return s.at[e1] - 1 - s.at[e0] }

// massIn fills out with the per-class mass in the half-open interval
// between end points e0 < e1 and returns its total.
func (s *endIndex) massIn(e0, e1 int, out []float64) float64 {
	lo, hi := s.prefix(e0+1), s.prefix(e1+1)
	total := 0.0
	for c := range out {
		out[c] = hi[c] - lo[c]
		if out[c] < 0 {
			out[c] = 0
		}
		total += out[c]
	}
	return total
}

// intervalKind classifies the interval (a, b] per Definitions 2-4.
type intervalKind int

const (
	emptyInterval intervalKind = iota
	homogeneousInterval
	heterogeneousInterval
)

// classify inspects the per-class interval masses already computed into k.
func classify(k []float64) intervalKind {
	nonzero := 0
	for _, m := range k {
		if m > intervalEps {
			nonzero++
		}
	}
	switch nonzero {
	case 0:
		return emptyInterval
	case 1:
		return homogeneousInterval
	default:
		return heterogeneousInterval
	}
}

// intervalEps treats vanishing interval mass as empty, guarding against
// floating-point dust from pdf renormalisation.
const intervalEps = 1e-12
