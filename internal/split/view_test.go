package split

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"udt/internal/data"
	"udt/internal/pdf"
)

// buildAttrView indexes attribute j into a fresh view with a fresh builder;
// nil when no tuple carries a pdf for j.
func buildAttrView(tuples []*data.Tuple, j, numClasses int) *attrView {
	var b viewBuilder
	v := new(attrView)
	if b.build(v, tuples, j, numClasses) == 0 {
		return nil
	}
	return v
}

// refEvent is an event with the keys the reference sort breaks ties by.
type refEvent struct {
	event
	pos, sample int
}

// referenceView is the index as it was built before the run merge: gather
// every event, comparison-sort them, accumulate. The comparator orders
// location ties by the tuple's position in tuples and then by sample index,
// the order the merge is specified to produce.
func referenceView(tuples []*data.Tuple, j, numClasses int) *attrView {
	var events []refEvent
	var endSet []float64
	for pos, t := range tuples {
		p := t.Num[j]
		if p == nil {
			continue
		}
		for i := 0; i < p.NumSamples(); i++ {
			events = append(events, refEvent{event{x: p.X(i), mass: t.Weight * p.Mass(i), class: t.Class}, pos, i})
		}
		endSet = append(endSet, p.Min(), p.Max())
	}
	if len(events) == 0 {
		return nil
	}
	slices.SortFunc(events, func(a, b refEvent) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		}
		if c := cmp.Compare(a.pos, b.pos); c != 0 {
			return c
		}
		return cmp.Compare(a.sample, b.sample)
	})

	v := &attrView{totals: make([]float64, numClasses)}
	distinct := 0
	for i := range events {
		if i == 0 || events[i].x != events[i-1].x {
			distinct++
		}
	}
	v.xs = make([]float64, 0, distinct)
	v.cum = make([]float64, numClasses, numClasses*(distinct+1))
	run := make([]float64, numClasses)
	for i, e := range events {
		if i == 0 || e.x != events[i-1].x {
			v.xs = append(v.xs, e.x)
		}
		run[e.class] += e.mass
		v.totals[e.class] += e.mass
		v.total += e.mass
		if i == len(events)-1 || events[i+1].x != e.x {
			v.cum = append(v.cum, run...)
		}
	}

	sort.Float64s(endSet)
	v.ends = endSet[:0]
	for i, e := range endSet {
		if i == 0 || e != v.ends[len(v.ends)-1] {
			v.ends = append(v.ends, e)
		}
	}
	return v
}

// sameBits reports the first place a and b differ in any bit.
func sameBits(name string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: len %d, reference %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s[%d] = %v, reference %v", name, i, a[i], b[i])
		}
	}
	return nil
}

// sameView compares a merged view with the reference, bit for bit.
func sameView(got, want *attrView) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("view nil %v, reference nil %v", got == nil, want == nil)
	}
	if got == nil {
		return nil
	}
	if err := sameBits("xs", got.xs, want.xs); err != nil {
		return err
	}
	if err := sameBits("cum", got.cum, want.cum); err != nil {
		return err
	}
	if err := sameBits("totals", got.totals, want.totals); err != nil {
		return err
	}
	if err := sameBits("total", []float64{got.total}, []float64{want.total}); err != nil {
		return err
	}
	return sameBits("ends", got.ends, want.ends)
}

// locIndex-based queries on a full view, by location value: the
// references the end-point index and the bound tests are checked against.

// leftCounts fills out with v's per-class mass at locations <= x and
// returns its total.
func leftCounts(v *attrView, x float64, out []float64) float64 {
	total := 0.0
	for c, m := range v.prefix(v.locIndex(x)) {
		out[c] = m
		total += m
	}
	return total
}

// massIn fills out with v's per-class mass in the half-open interval (a, b]
// and returns its total.
func massIn(v *attrView, a, b float64, out []float64) float64 {
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

// interiorRange returns the index range [lo, hi) of v.xs strictly inside
// the open interval (a, b).
func interiorRange(v *attrView, a, b float64) (lo, hi int) {
	lo = sort.Search(len(v.xs), func(i int) bool { return v.xs[i] > a })
	hi = sort.Search(len(v.xs), func(i int) bool { return v.xs[i] >= b })
	return lo, hi
}

// sameInteriors checks the end-point index s against the full view v it
// indexes at ends, and every fine interval of ends with interior
// candidates: the interior b indexes on demand from tuples must hold v's
// locations and rows inside the interval, bit for bit, and count the
// samples strictly inside it.
func sameInteriors(b *viewBuilder, v *attrView, s *endIndex, ends []float64, tuples []*data.Tuple) error {
	var in attrView
	if err := sameBits("end points", s.xs, ends); err != nil {
		return err
	}
	if err := sameBits("end-point totals", s.totals, v.totals); err != nil {
		return err
	}
	if err := sameBits("end-point total", []float64{s.total}, []float64{v.total}); err != nil {
		return err
	}
	if err := sameBits("end row 0", s.prefix(0), v.prefix(0)); err != nil {
		return err
	}
	for e, x := range ends {
		if s.at[e] != v.locIndex(x) {
			return fmt.Errorf("end %d (%v): at %d, full view %d", e, x, s.at[e], v.locIndex(x))
		}
		if err := sameBits(fmt.Sprintf("end %d row", e), s.prefix(e+1), v.prefix(v.locIndex(x))); err != nil {
			return err
		}
	}
	// inside[e] counts the samples strictly inside fine interval e.
	inside := make([]int, len(ends))
	for _, t := range tuples {
		if p := t.Num[0]; p != nil {
			for i := 0; i < p.NumSamples(); i++ {
				e := sort.SearchFloat64s(ends, p.X(i)) - 1
				if e >= 0 && e+1 < len(ends) && ends[e+1] != p.X(i) {
					inside[e]++
				}
			}
		}
	}
	k := len(v.totals)
	got, want := make([]float64, k), make([]float64, k)
	for e := 0; e+1 < len(ends); e++ {
		a, z := ends[e], ends[e+1]
		gt, wt := s.massIn(e, e+1, got), massIn(v, a, z, want)
		if err := sameBits(fmt.Sprintf("interval %d mass", e), append(got, gt), append(want, wt)); err != nil {
			return err
		}
		lo, hi := interiorRange(v, a, z)
		if n := s.inside(e, e+1); n != hi-lo {
			return fmt.Errorf("interval %d (%v, %v): %d inside, full view has %d", e, a, z, n, hi-lo)
		}
		if lo == hi {
			continue
		}
		if n := b.interior(&in, s, tuples, 0, e); n != inside[e] {
			return fmt.Errorf("interval %d (%v, %v): merged %d samples, %d inside", e, a, z, n, inside[e])
		}
		name := fmt.Sprintf("interval %d (%v, %v) ", e, a, z)
		if err := sameBits(name+"xs", in.xs, v.xs[lo:hi]); err != nil {
			return err
		}
		if err := sameBits(name+"cum", in.cum, v.cum[lo*k:(hi+1)*k]); err != nil {
			return err
		}
		if err := sameBits(name+"totals", in.totals, v.totals); err != nil {
			return err
		}
		if err := sameBits(name+"total", []float64{in.total}, []float64{v.total}); err != nil {
			return err
		}
	}
	return nil
}

// checkEndIndexes checks, against the full view v of tuples that b built,
// every end-point index a serial search keeps: summarized from v at its
// domain and at its percentile end points, and built straight from tuples
// by b at the domain end points, as GP and ES build it.
func checkEndIndexes(b *viewBuilder, v *attrView, tuples []*data.Tuple) error {
	pct := NewFinder(Config{EndPoints: PercentileEnds, Percentiles: 3}).endsFor(v)
	domain := append([]float64(nil), v.ends...)
	for _, tc := range []struct {
		name string
		ends []float64
		make func(s *endIndex)
	}{
		{"domain ends, summarized", domain, func(s *endIndex) { s.summarize(v, domain) }},
		{"percentile ends, summarized", pct, func(s *endIndex) { s.summarize(v, pct) }},
		{"domain ends, built directly", domain, func(s *endIndex) { b.buildEnds(s, tuples, 0, len(v.totals)) }},
	} {
		var s endIndex
		tc.make(&s)
		if err := sameInteriors(b, v, &s, tc.ends, tuples); err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
	}
	return nil
}

// mergeOracleTuples draws a node's tuples with everything the merge must
// order exactly: missing values, SplitAt pieces, point pdfs on a coarse
// integer grid (heavy cross-tuple ties, several classes per location),
// single-sample pdfs, pdfs sharing sample grids, fractional weights and
// repeated tuple pointers, as bootstrap samples produce.
func mergeOracleTuples(rng *rand.Rand, numClasses int) []*data.Tuple {
	n := 1 + rng.Intn(40)
	tuples := make([]*data.Tuple, 0, n)
	for len(tuples) < n {
		if len(tuples) > 0 && rng.Intn(6) == 0 {
			tuples = append(tuples, tuples[rng.Intn(len(tuples))])
			continue
		}
		var p *pdf.PDF
		grid := float64(rng.Intn(8))
		switch rng.Intn(6) {
		case 0: // missing
		case 1:
			p = pdf.Point(grid)
		case 2:
			p, _ = pdf.Uniform(grid, grid+float64(1+rng.Intn(4)), 1+rng.Intn(9))
		case 3:
			c := grid + rng.Float64()
			p, _ = pdf.Gaussian(c, 0.5, c-1, c+1, 2+rng.Intn(20))
		case 4: // a piece of a straddling pdf, as partitionNumeric makes
			whole, _ := pdf.Uniform(grid, grid+4, 2+rng.Intn(12))
			left, right, _ := whole.SplitAt(grid + 4*rng.Float64())
			if p = left; p == nil || rng.Intn(2) == 0 && right != nil {
				p = right
			}
		default: // integer-valued masses on an integer grid
			k := 1 + rng.Intn(5)
			xs, ms := make([]float64, k), make([]float64, k)
			for i := range xs {
				xs[i] = grid + float64(i)
				ms[i] = float64(1 + rng.Intn(3))
			}
			p = pdf.MustNew(xs, ms)
		}
		w := 1.0
		if rng.Intn(3) == 0 {
			w = 0.05 + rng.Float64()
		}
		tuples = append(tuples, &data.Tuple{Num: []*pdf.PDF{p}, Class: rng.Intn(numClasses), Weight: w})
	}
	return tuples
}

// TestAttrViewMergeMatchesSort: the run merge builds the view the reference
// comparison sort builds, bit for bit, on nodes of every shape — with one
// builder and one view reused across all of them, as a finder reuses them
// across attributes and nodes.
func TestAttrViewMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var b viewBuilder
	var v attrView
	for trial := 0; trial < 3000; trial++ {
		numClasses := 1 + rng.Intn(4)
		tuples := mergeOracleTuples(rng, numClasses)
		var got *attrView
		if n := b.build(&v, tuples, 0, numClasses); n > 0 {
			got = &v
		}
		if err := sameView(got, referenceView(tuples, 0, numClasses)); err != nil {
			t.Fatalf("trial %d (%d tuples, %d classes): %v", trial, len(tuples), numClasses, err)
		}
	}
}

// TestInteriorMatchesFullView: every end-point index a serial search keeps
// (summarized from the full view at domain or percentile end points, or
// built directly at domain end points) holds the full view's rows at its
// end points, and an interval interior indexed on demand from the node's
// tuples and the stored end-point row holds the full view's locations and
// rows inside the interval, bit for bit, for every fine interval with
// interior candidates, on nodes of every shape, with one builder reused
// throughout.
func TestInteriorMatchesFullView(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var b viewBuilder
	var v attrView
	intervals := 0
	for trial := 0; trial < 3000; trial++ {
		numClasses := 1 + rng.Intn(4)
		tuples := mergeOracleTuples(rng, numClasses)
		if b.build(&v, tuples, 0, numClasses) == 0 {
			continue
		}
		if err := checkEndIndexes(&b, &v, tuples); err != nil {
			t.Fatalf("trial %d (%d tuples, %d classes): %v", trial, len(tuples), numClasses, err)
		}
		for e := 0; e+1 < len(v.ends); e++ {
			if lo, hi := interiorRange(&v, v.ends[e], v.ends[e+1]); lo < hi {
				intervals++
			}
		}
	}
	if intervals < 1000 {
		t.Fatalf("only %d intervals with interiors checked", intervals)
	}
}

// TestIndexedCounts: Stats.Indexed counts every sample point merged into a
// view. Every strategy indexes each sample once; a serial GP or ES search
// keeps only each attribute's end-point index after phase 1, so it then
// indexes the interiors of the fine intervals that survive pruning, a
// few percent more; the parallel ES search keeps every full view and
// indexes nothing more.
func TestIndexedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tuples := randomDataset(rng, 120, 3, 3, 10)
	tuples[0].Num[1] = nil // a missing value indexes nothing
	samples := int64(0)
	for _, tu := range tuples {
		for _, p := range tu.Num {
			if p != nil {
				samples += int64(p.NumSamples())
			}
		}
	}
	for _, tc := range []struct {
		cfg  Config
		want int64
	}{
		{Config{Strategy: UDT}, samples},
		{Config{Strategy: BP}, samples},
		{Config{Strategy: LP}, samples},
		{Config{Strategy: GP}, 2712},
		{Config{Strategy: ES}, 2713},
		{Config{Strategy: ES, Workers: 4}, samples},
	} {
		f := NewFinder(tc.cfg)
		f.Best(tuples, 3, 3)
		got := f.Stats().Indexed
		if got != tc.want {
			t.Errorf("%v workers %d: Indexed %d, want %d (%d samples)", tc.cfg.Strategy, tc.cfg.Workers, got, tc.want, samples)
		}
		if got < samples || float64(got) >= 1.1*float64(samples) {
			t.Errorf("%v workers %d: Indexed %d, want samples (%d) up to 1.1 times", tc.cfg.Strategy, tc.cfg.Workers, got, samples)
		}
	}
}

// FuzzAttrViewMerge decodes arbitrary bytes into a node's runs and requires
// the merged view to match the reference sort bit for bit, and every
// end-point index and interval interior indexed on demand to match the
// view. Each tuple takes
// four bytes: its sample count (0 is a missing value, 7 repeats an earlier
// tuple's pointer), class, weight, and where its increasing locations start
// on a coarse grid; each sample then takes one byte for its step from the
// previous location and its mass.
func FuzzAttrViewMerge(f *testing.F) {
	f.Add([]byte{1, 0, 4, 3, 9, 1, 1, 4, 3, 7, 2, 0, 2, 2, 33, 17})
	f.Add([]byte{4, 1, 200, 0, 16, 33, 50, 67, 4, 2, 90, 0, 16, 33, 50, 67, 7, 0, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{3, 0, 255, 2, 1, 2, 3, 3, 1, 255, 2, 1, 2, 3, 3, 2, 128, 2, 1, 2, 3, 1, 0, 9, 2, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		const numClasses = 3
		var tuples []*data.Tuple
		for len(in) >= 4 && len(tuples) < 64 {
			k, class, w, start := int(in[0]%8), int(in[1])%numClasses, in[2], float64(in[3]%8)
			in = in[4:]
			if k == 7 && len(tuples) > 0 {
				tuples = append(tuples, tuples[int(start)%len(tuples)])
				continue
			}
			var p *pdf.PDF
			if k > 0 && k < 7 && len(in) >= k {
				xs, ms := make([]float64, k), make([]float64, k)
				x := start
				for i := range xs {
					x += float64(in[i] % 4) // step 0 merges into the previous location
					xs[i], ms[i] = x, float64(1+in[i]/4)
				}
				in = in[k:]
				var err error
				if p, err = pdf.New(xs, ms); err != nil {
					t.Fatal(err)
				}
			}
			tuples = append(tuples, &data.Tuple{Num: []*pdf.PDF{p}, Class: class, Weight: 0.01 + float64(w)/64})
		}
		var b viewBuilder
		var v attrView
		// Build twice into the same buffers: a reused builder must not
		// carry anything over from the previous view. End-point indexes
		// and interiors, built with the same builder, must hold the
		// view's rows.
		for pass := 0; pass < 2; pass++ {
			var got *attrView
			if b.build(&v, tuples, 0, numClasses) > 0 {
				got = &v
			}
			if err := sameView(got, referenceView(tuples, 0, numClasses)); err != nil {
				t.Fatalf("pass %d, %d tuples: %v", pass, len(tuples), err)
			}
			if got == nil {
				continue
			}
			if err := checkEndIndexes(&b, got, tuples); err != nil {
				t.Fatalf("pass %d, %d tuples: %v", pass, len(tuples), err)
			}
		}
	})
}
