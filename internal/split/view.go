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
	events []event // the node's events, one run per tuple, then merged
	spare  []event // the other side of each merge pass
	runs   []int   // run r is events[runs[r]:runs[r+1]]
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
	n := 0
	for _, t := range tuples {
		if p := t.Num[j]; p != nil {
			n += p.NumSamples()
		}
	}
	if n == 0 {
		return 0
	}
	b.events, b.spare = resize(b.events, n), resize(b.spare, n)
	v.totals = resize(v.totals, numClasses)
	b.gather(v, tuples, j)
	events := b.merge()
	distinct := 0
	for i := range events {
		if i == 0 || events[i].x != events[i-1].x {
			distinct++
		}
	}
	v.xs = resize(v.xs, distinct)
	v.cum = resize(v.cum, numClasses*(distinct+1))
	v.accumulate(events)
	sort.Float64s(v.ends)
	v.ends = dedupSorted(v.ends)
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

// accumulate fills v.xs with the distinct locations of the sorted events
// and v.cum with a row of running per-class sums after each. The running
// sums are kept in v.totals, which holds the class totals once every event
// is in. v.xs and v.cum must already have their lengths for the distinct
// count.
//
//udt:hotpath
func (v *attrView) accumulate(events []event) {
	run := v.totals
	clear(run)
	copy(v.cum, run) // row 0: nothing yet
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
	v.total = total
}

// resize returns buf with length n. It keeps buf's array when that has
// room, and otherwise allocates a zeroed one without copying the contents.
func resize[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// locIndex returns the number of sample locations <= x, i.e. the exclusive
// upper index of the left partition when splitting at x.
func (v *attrView) locIndex(x float64) int {
	return sort.Search(len(v.xs), func(i int) bool { return v.xs[i] > x })
}

// leftCounts fills out with the per-class mass at locations <= x and
// returns the left total. out must have len == numClasses.
func (v *attrView) leftCounts(x float64, out []float64) float64 {
	total := 0.0
	for c, m := range v.prefix(v.locIndex(x)) {
		out[c] = m
		total += m
	}
	return total
}

// massIn fills out with the per-class mass in the half-open interval (a, b]
// and returns its total.
func (v *attrView) massIn(a, b float64, out []float64) float64 {
	lo, hi := v.prefix(v.locIndex(a)), v.prefix(v.locIndex(b))
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

// interiorRange returns the index range [lo, hi) of v.xs strictly inside
// the open interval (a, b).
func (v *attrView) interiorRange(a, b float64) (lo, hi int) {
	lo = sort.Search(len(v.xs), func(i int) bool { return v.xs[i] > a })
	hi = sort.Search(len(v.xs), func(i int) bool { return v.xs[i] >= b })
	return lo, hi
}
