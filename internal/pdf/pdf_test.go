package pdf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewNormalisesAndSorts(t *testing.T) {
	p, err := New([]float64{3, 1, 2}, []float64{2, 1, 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p.NumSamples() != 3 {
		t.Fatalf("NumSamples = %d, want 3", p.NumSamples())
	}
	if p.X(0) != 1 || p.X(1) != 2 || p.X(2) != 3 {
		t.Fatalf("locations not sorted: %v %v %v", p.X(0), p.X(1), p.X(2))
	}
	if !almostEqual(p.Mass(0), 0.25, 1e-12) || !almostEqual(p.Mass(2), 0.5, 1e-12) {
		t.Fatalf("masses not normalised: %v %v %v", p.Mass(0), p.Mass(1), p.Mass(2))
	}
}

func TestNewMergesDuplicates(t *testing.T) {
	p, err := New([]float64{1, 1, 2}, []float64{1, 1, 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p.NumSamples() != 2 {
		t.Fatalf("NumSamples = %d, want 2", p.NumSamples())
	}
	if !almostEqual(p.Mass(0), 0.5, 1e-12) {
		t.Fatalf("merged mass = %v, want 0.5", p.Mass(0))
	}
}

func TestNewDropsZeroMassPoints(t *testing.T) {
	p, err := New([]float64{1, 2, 3}, []float64{1, 0, 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p.NumSamples() != 2 {
		t.Fatalf("NumSamples = %d, want 2", p.NumSamples())
	}
}

// TestNewIncreasingMatchesGeneralPath: strictly increasing locations skip
// the copy and sort, and must still build the general path's pdf bit for
// bit, including when masses at or below massEps are dropped at both ends.
func TestNewIncreasingMatchesGeneralPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 3 + rng.Intn(150)
		xs := make([]float64, n)
		ms := make([]float64, n)
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		for i := range xs {
			x = math.Nextafter(x+rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(5)-2)), math.Inf(1))
			xs[i] = x
			ms[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		// Masses at or below the threshold at both ends, exactly at it
		// included; the interior keeps at least one real mass.
		for k := rng.Intn(3); k >= 0; k-- {
			ms[k] = rng.Float64() * massEps
		}
		ms[0] = massEps
		ms[n-1] = rng.Float64() * massEps
		ms[n/2] = 1 + rng.Float64()
		total, kept, increasing, err := validate(xs, ms)
		if err != nil || !increasing {
			t.Fatalf("trial %d: validate = %v, increasing %v", trial, err, increasing)
		}
		want := fromUnordered(xs, ms, kept, total)
		got, err := New(xs, ms)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.xs) != len(want.xs) || len(got.cum) != len(want.cum) {
			t.Fatalf("trial %d: %d samples, general path %d", trial, len(got.xs), len(want.xs))
		}
		for i := range want.xs {
			if math.Float64bits(got.xs[i]) != math.Float64bits(want.xs[i]) ||
				math.Float64bits(got.cum[i]) != math.Float64bits(want.cum[i]) {
				t.Fatalf("trial %d sample %d: (%v, %v), general path (%v, %v)",
					trial, i, got.xs[i], got.cum[i], want.xs[i], want.cum[i])
			}
		}
		if got.xs[0] == xs[0] || got.xs[len(got.xs)-1] == xs[n-1] {
			t.Fatalf("trial %d: a mass at or below massEps was kept", trial)
		}
	}
}

// fromUnorderedSortSlice is fromUnordered with the reflection-based
// sort.Slice it used before the typed sort: the reference that
// TestTypedSortMatchesSortSlice holds fromUnordered to.
func fromUnorderedSortSlice(xs, masses []float64, kept int, total float64) *PDF {
	type pt struct{ x, m float64 }
	pts := make([]pt, 0, kept)
	for i, x := range xs {
		if m := masses[i]; m > massEps {
			pts = append(pts, pt{x, m})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	p := withCapacity(kept)
	run := 0.0
	for i, q := range pts {
		run += q.m / total
		if i > 0 && q.x == p.xs[len(p.xs)-1] {
			p.cum[len(p.cum)-1] = run
			continue
		}
		p.xs = append(p.xs, q.x)
		p.cum = append(p.cum, run)
	}
	p.cum[len(p.cum)-1] = 1
	return p
}

// TestTypedSortMatchesSortSlice: fromUnordered's typed sort must permute
// the points as sort.Slice does, so that masses at one location are summed
// in the same order, and the first of -0 and +0 stays the location kept,
// bit for bit. Locations repeat often; the inputs are shuffled, ascending
// or descending, and long enough to pass pdqsort's insertion-sort cut-off.
func TestTypedSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(120)
		if trial%10 == 0 {
			n = 1 + rng.Intn(2000)
		}
		distinct := 1 + rng.Intn(n)
		xs := make([]float64, n)
		ms := make([]float64, n)
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = float64(rng.Intn(distinct)-distinct/2) * 0.37
			}
			switch rng.Intn(10) {
			case 0:
				ms[i] = 0
			case 1:
				ms[i] = massEps * rng.Float64()
			default:
				ms[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		switch trial % 3 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		total, kept, _, err := validate(xs, ms)
		if err != nil {
			continue
		}
		got := fromUnordered(xs, ms, kept, total)
		want := fromUnorderedSortSlice(xs, ms, kept, total)
		if len(got.xs) != len(want.xs) {
			t.Fatalf("trial %d: %d samples, sort.Slice gives %d", trial, len(got.xs), len(want.xs))
		}
		for i := range want.xs {
			if math.Float64bits(got.xs[i]) != math.Float64bits(want.xs[i]) ||
				math.Float64bits(got.cum[i]) != math.Float64bits(want.cum[i]) {
				t.Fatalf("trial %d sample %d: (%v, %v), sort.Slice gives (%v, %v)",
					trial, i, got.xs[i], got.cum[i], want.xs[i], want.cum[i])
			}
		}
	}
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name   string
		xs, ms []float64
	}{
		{"empty", nil, nil},
		{"mismatch", []float64{1}, []float64{1, 2}},
		{"negative mass", []float64{1}, []float64{-1}},
		{"zero total", []float64{1, 2}, []float64{0, 0}},
		{"nan location", []float64{math.NaN()}, []float64{1}},
		{"inf location", []float64{math.Inf(1)}, []float64{1}},
		{"nan mass", []float64{1}, []float64{math.NaN()}},
	}
	for _, c := range cases {
		if _, err := New(c.xs, c.ms); err == nil {
			t.Errorf("%s: New succeeded, want error", c.name)
		}
	}
}

func TestPoint(t *testing.T) {
	p := Point(5)
	if p.NumSamples() != 1 || p.Mean() != 5 || p.Min() != 5 || p.Max() != 5 {
		t.Fatalf("Point(5) malformed: %v", p)
	}
	if p.CDF(4.999) != 0 || p.CDF(5) != 1 {
		t.Fatalf("Point CDF wrong: %v %v", p.CDF(4.999), p.CDF(5))
	}
}

func TestUniform(t *testing.T) {
	p, err := Uniform(0, 10, 11)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	if p.NumSamples() != 11 {
		t.Fatalf("NumSamples = %d, want 11", p.NumSamples())
	}
	if !almostEqual(p.Mean(), 5, 1e-9) {
		t.Fatalf("Mean = %v, want 5", p.Mean())
	}
	for i := 0; i < 11; i++ {
		if !almostEqual(p.Mass(i), 1.0/11, 1e-9) {
			t.Fatalf("Mass(%d) = %v, want 1/11", i, p.Mass(i))
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	p, err := Uniform(3, 3, 100)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	if p.NumSamples() != 1 || p.Mean() != 3 {
		t.Fatalf("degenerate uniform should be a point at 3, got %v", p)
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(0, 1, 0); err == nil {
		t.Error("s=0 should error")
	}
	if _, err := Uniform(2, 1, 10); err == nil {
		t.Error("a>b should error")
	}
	if _, err := Uniform(math.NaN(), 1, 10); err == nil {
		t.Error("NaN bound should error")
	}
}

func TestGaussianMoments(t *testing.T) {
	// Wide truncation: moments should be close to the untruncated ones.
	p, err := Gaussian(10, 1, 4, 16, 401)
	if err != nil {
		t.Fatalf("Gaussian: %v", err)
	}
	if !almostEqual(p.Mean(), 10, 1e-3) {
		t.Fatalf("Mean = %v, want ~10", p.Mean())
	}
	if !almostEqual(p.Variance(), 1, 2e-2) {
		t.Fatalf("Variance = %v, want ~1", p.Variance())
	}
}

func TestGaussianTruncationRenormalises(t *testing.T) {
	p, err := Gaussian(0, 1, -1, 1, 101)
	if err != nil {
		t.Fatalf("Gaussian: %v", err)
	}
	if !almostEqual(p.CDF(p.Max()), 1, 1e-12) {
		t.Fatalf("total mass = %v, want 1", p.CDF(p.Max()))
	}
	if !almostEqual(p.Mean(), 0, 1e-9) {
		t.Fatalf("symmetric truncation should keep mean 0, got %v", p.Mean())
	}
}

func TestGaussianFarTruncationFallsBack(t *testing.T) {
	// Interval 100 sigmas away from the mean: all masses underflow.
	p, err := Gaussian(0, 1, 100, 101, 10)
	if err != nil {
		t.Fatalf("Gaussian: %v", err)
	}
	if p.NumSamples() != 1 {
		t.Fatalf("expected point fallback, got %d samples", p.NumSamples())
	}
	if p.Mean() != 100 {
		t.Fatalf("fallback should clamp to nearest bound 100, got %v", p.Mean())
	}
}

func TestFromSamples(t *testing.T) {
	p, err := FromSamples([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatalf("FromSamples: %v", err)
	}
	if p.NumSamples() != 3 {
		t.Fatalf("NumSamples = %d, want 3", p.NumSamples())
	}
	if !almostEqual(p.Mass(1), 0.5, 1e-12) {
		t.Fatalf("duplicate observation should get doubled mass, got %v", p.Mass(1))
	}
	if !almostEqual(p.Mean(), 2, 1e-12) {
		t.Fatalf("Mean = %v, want 2", p.Mean())
	}
}

func TestCDFAndMassIn(t *testing.T) {
	p := MustNew([]float64{-1, 1, 10}, []float64{5, 1, 2})
	if !almostEqual(p.CDF(-1), 5.0/8, 1e-12) {
		t.Fatalf("CDF(-1) = %v", p.CDF(-1))
	}
	if p.CDF(-1.0001) != 0 {
		t.Fatalf("CDF below min should be 0, got %v", p.CDF(-1.0001))
	}
	if !almostEqual(p.CDF(1), 6.0/8, 1e-12) {
		t.Fatalf("CDF(1) = %v", p.CDF(1))
	}
	if p.CDF(11) != 1 {
		t.Fatalf("CDF above max should be 1")
	}
	if !almostEqual(p.MassIn(-1, 1), 1.0/8, 1e-12) {
		t.Fatalf("MassIn(-1,1] = %v, want 1/8", p.MassIn(-1, 1))
	}
	if p.MassIn(5, 5) != 0 || p.MassIn(7, 3) != 0 {
		t.Fatal("empty/inverted interval should have zero mass")
	}
}

func TestQuantile(t *testing.T) {
	p := MustNew([]float64{1, 2, 3, 4}, []float64{1, 1, 1, 1})
	if p.Quantile(0) != 1 || p.Quantile(1) != 4 {
		t.Fatalf("extreme quantiles wrong: %v %v", p.Quantile(0), p.Quantile(1))
	}
	if p.Quantile(0.25) != 1 {
		t.Fatalf("Quantile(0.25) = %v, want 1", p.Quantile(0.25))
	}
	if p.Quantile(0.26) != 2 {
		t.Fatalf("Quantile(0.26) = %v, want 2", p.Quantile(0.26))
	}
	if p.Median() != 2 {
		t.Fatalf("Median = %v, want 2", p.Median())
	}
}

func TestSplitAtPaperExample(t *testing.T) {
	// Tuple 3 of Table 1: values -1, +1, +10 with masses 5/8, 1/8, 2/8.
	p := MustNew([]float64{-1, 1, 10}, []float64{5, 1, 2})
	left, right, pL := p.SplitAt(-1)
	if !almostEqual(pL, 5.0/8, 1e-12) {
		t.Fatalf("pL = %v, want 5/8", pL)
	}
	if left.NumSamples() != 1 || left.X(0) != -1 {
		t.Fatalf("left part wrong: %v", left)
	}
	if right.NumSamples() != 2 || !almostEqual(right.Mass(0), 1.0/3, 1e-12) {
		t.Fatalf("right part not renormalised: %v mass0=%v", right, right.Mass(0))
	}
}

func TestSplitAtBoundaries(t *testing.T) {
	p := MustNew([]float64{1, 2, 3}, []float64{1, 1, 1})
	if l, r, pL := p.SplitAt(0.5); l != nil || r != p || pL != 0 {
		t.Fatal("split below min should return everything on the right")
	}
	if l, r, pL := p.SplitAt(3); l != p || r != nil || pL != 1 {
		t.Fatal("split at max should return everything on the left")
	}
}

func TestSplitAtConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ms := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ms[i] = rng.Float64() + 0.01
		}
		p := MustNew(xs, ms)
		z := p.Min() + rng.Float64()*(p.Max()-p.Min())
		l, r, pL := p.SplitAt(z)
		if pL < 0 || pL > 1 {
			t.Fatalf("pL out of range: %v", pL)
		}
		if !almostEqual(pL, p.CDF(z), 1e-12) {
			t.Fatalf("pL %v != CDF(z) %v", pL, p.CDF(z))
		}
		if l != nil && !almostEqual(l.CDF(l.Max()), 1, 1e-9) {
			t.Fatal("left part not renormalised")
		}
		if r != nil && !almostEqual(r.CDF(r.Max()), 1, 1e-9) {
			t.Fatal("right part not renormalised")
		}
		if l != nil && l.Max() > z {
			t.Fatal("left part leaks past split point")
		}
		if r != nil && r.Min() <= z {
			t.Fatal("right part leaks below split point")
		}
		// Mean is conserved: E[X] = pL*E[X|left] + pR*E[X|right].
		mean := 0.0
		if l != nil {
			mean += pL * l.Mean()
		}
		if r != nil {
			mean += (1 - pL) * r.Mean()
		}
		if !almostEqual(mean, p.Mean(), 1e-9) {
			t.Fatalf("mean not conserved: %v vs %v", mean, p.Mean())
		}
	}
}

func TestShift(t *testing.T) {
	p := MustNew([]float64{1, 2}, []float64{1, 3})
	q := p.Shift(10)
	if q.Min() != 11 || q.Max() != 12 {
		t.Fatalf("shifted bounds wrong: %v", q)
	}
	if !almostEqual(q.Mean(), p.Mean()+10, 1e-12) {
		t.Fatalf("shifted mean wrong: %v", q.Mean())
	}
	if p.Min() != 1 {
		t.Fatal("Shift must not mutate the receiver")
	}
}

func TestEqual(t *testing.T) {
	p := MustNew([]float64{1, 2}, []float64{1, 1})
	q := MustNew([]float64{1, 2}, []float64{1, 1})
	r := MustNew([]float64{1, 3}, []float64{1, 1})
	if !p.Equal(q, 1e-12) {
		t.Fatal("identical pdfs should be Equal")
	}
	if p.Equal(r, 1e-12) {
		t.Fatal("different pdfs should not be Equal")
	}
	if p.Equal(Point(1), 1e-12) {
		t.Fatal("different sample counts should not be Equal")
	}
}

// Property: CDF is monotone non-decreasing and hits {0,1} at the extremes.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		ms := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
			ms[i] = rng.Float64() + 1e-3
		}
		p := MustNew(xs, ms)
		prev := -1.0
		for x := p.Min() - 1; x <= p.Max()+1; x += (p.Max() - p.Min() + 2) / 57 {
			c := p.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return p.CDF(p.Min()-1) == 0 && p.CDF(p.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitAt at any sample point yields parts whose recombined CDF
// matches the original at every sample location.
func TestQuickSplitRecombines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		xs := make([]float64, n)
		ms := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50))
			ms[i] = rng.Float64() + 1e-3
		}
		p := MustNew(xs, ms)
		if p.NumSamples() < 2 {
			return true
		}
		z := p.X(rng.Intn(p.NumSamples() - 1))
		l, r, pL := p.SplitAt(z)
		for i := 0; i < p.NumSamples(); i++ {
			x := p.X(i)
			var c float64
			if l != nil {
				c += pL * l.CDF(x)
			}
			if r != nil {
				c += (1 - pL) * r.CDF(x)
			}
			if math.Abs(c-p.CDF(x)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if s := Point(2).String(); s != "point(2)" {
		t.Fatalf("String = %q", s)
	}
	p := MustNew([]float64{0, 1}, []float64{1, 1})
	if p.String() == "" {
		t.Fatal("empty String")
	}
}
