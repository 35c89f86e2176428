// Package pdf implements bounded probability density functions approximated
// by discrete sample points, the uncertainty representation used throughout
// the UDT system (Tsang et al., "Decision Trees for Uncertain Data").
//
// A PDF stores s sample points x_1 < x_2 < ... < x_s together with the
// cumulative mass at each point. Interval mass queries, which dominate tree
// construction, therefore cost two binary searches and one subtraction —
// the "store the pdf as a cumulative distribution" trick from §4.2 of the
// paper.
package pdf

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// PDF is a probability distribution over a bounded interval, approximated by
// discrete sample points. A PDF is immutable after construction; it is safe
// for concurrent use.
type PDF struct {
	xs  []float64 // sorted, strictly increasing sample locations
	cum []float64 // cum[i] = total mass at xs[0..i]; cum[len-1] == 1
}

// Common construction errors.
var (
	ErrNoSamples    = errors.New("pdf: no sample points")
	ErrBadMass      = errors.New("pdf: masses must be non-negative with positive total")
	ErrBadInterval  = errors.New("pdf: invalid interval")
	ErrBadSampleCnt = errors.New("pdf: sample count must be positive")
)

// massEps is the tolerance below which a probability mass is treated as zero.
const massEps = 1e-12

// New builds a PDF from parallel slices of sample locations and masses.
// Locations need not be sorted; duplicate locations have their masses merged.
// Masses are normalised to sum to one.
func New(xs, masses []float64) (*PDF, error) {
	if len(xs) == 0 {
		return nil, ErrNoSamples
	}
	if len(xs) != len(masses) {
		return nil, fmt.Errorf("pdf: %d locations but %d masses", len(xs), len(masses))
	}
	total, kept, increasing, err := validate(xs, masses)
	if err != nil {
		return nil, err
	}
	if increasing {
		return fromIncreasing(xs, masses, kept, total), nil
	}
	return fromUnordered(xs, masses, kept, total), nil
}

// validate checks every location and mass, and returns the total of the
// masses above massEps (summed in input order), how many there are, and
// whether the locations are strictly increasing.
func validate(xs, masses []float64) (total float64, kept int, increasing bool, err error) {
	increasing = true
	for i, x := range xs {
		m := masses[i]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, 0, false, fmt.Errorf("pdf: non-finite sample location %v", x)
		}
		if m < 0 || math.IsNaN(m) {
			return 0, 0, false, ErrBadMass
		}
		if i > 0 && x <= xs[i-1] {
			increasing = false
		}
		if m <= massEps {
			continue
		}
		kept++
		total += m
	}
	if total <= massEps {
		return 0, 0, false, ErrBadMass
	}
	return total, kept, increasing, nil
}

// fromIncreasing builds the PDF of strictly increasing locations straight
// from the input: there is nothing to sort and no duplicate to merge. It
// accumulates the same quotients in the same order as fromUnordered, so the
// two agree bit for bit.
func fromIncreasing(xs, masses []float64, kept int, total float64) *PDF {
	p := withCapacity(kept)
	run := 0.0
	for i, x := range xs {
		if m := masses[i]; m > massEps {
			run += m / total
			p.xs = append(p.xs, x)
			p.cum = append(p.cum, run)
		}
	}
	p.cum[kept-1] = 1 // kill accumulated rounding error
	return p
}

// fromUnordered is the general path: sort a copy of the kept points by
// location and merge duplicates.
func fromUnordered(xs, masses []float64, kept int, total float64) *PDF {
	type pt struct{ x, m float64 }
	pts := make([]pt, 0, kept)
	for i, x := range xs {
		if m := masses[i]; m > massEps {
			pts = append(pts, pt{x, m})
		}
	}
	// validate refused NaN, so < and > order the locations totally. The
	// permutation is sort.Slice's (pdf_test.go pins it), so masses at one
	// location are summed in the same order.
	slices.SortFunc(pts, func(a, b pt) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		}
		return 0
	})
	p := withCapacity(kept)
	run := 0.0
	for i, q := range pts {
		run += q.m / total
		if i > 0 && q.x == p.xs[len(p.xs)-1] {
			p.cum[len(p.cum)-1] = run // merge duplicate location
			continue
		}
		p.xs = append(p.xs, q.x)
		p.cum = append(p.cum, run)
	}
	p.cum[len(p.cum)-1] = 1 // kill accumulated rounding error
	return p
}

// withCapacity returns an empty PDF with room for n sample points. Its xs
// and cum share one allocation, so a pdf's two arrays are allocated, kept
// and freed together, apart from the short-lived buffers its input was
// parsed into.
func withCapacity(n int) *PDF {
	buf := make([]float64, 2*n)
	return &PDF{xs: buf[:0:n], cum: buf[n:n]}
}

// MustNew is New that panics on error; for tests and literals.
func MustNew(xs, masses []float64) *PDF {
	p, err := New(xs, masses)
	if err != nil {
		panic(err)
	}
	return p
}

// Point returns the degenerate PDF concentrated at v. It is how the
// Averaging approach (AVG) represents data: a pdf collapsed to one value.
func Point(v float64) *PDF {
	return &PDF{xs: []float64{v}, cum: []float64{1}}
}

// Uniform returns the uniform distribution on [a, b] discretised at s
// equally spaced sample points, each carrying mass 1/s.
func Uniform(a, b float64, s int) (*PDF, error) {
	if s <= 0 {
		return nil, ErrBadSampleCnt
	}
	if !(a <= b) || math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return nil, ErrBadInterval
	}
	if a == b || s == 1 {
		return Point((a + b) / 2), nil
	}
	xs := make([]float64, s)
	ms := make([]float64, s)
	step := (b - a) / float64(s-1)
	for i := range xs {
		xs[i] = a + float64(i)*step
		ms[i] = 1
	}
	xs[s-1] = b
	return New(xs, ms)
}

// Gaussian returns the Gaussian N(mean, sigma²) truncated to [a, b] and
// renormalised (footnote 5 of the paper), discretised at s equally spaced
// points whose masses are the exact Gaussian mass of the surrounding cell.
func Gaussian(mean, sigma, a, b float64, s int) (*PDF, error) {
	if s <= 0 {
		return nil, ErrBadSampleCnt
	}
	if !(a <= b) || math.IsNaN(a) || math.IsNaN(b) {
		return nil, ErrBadInterval
	}
	if sigma <= 0 || a == b || s == 1 {
		v := mean
		if v < a {
			v = a
		}
		if v > b {
			v = b
		}
		return Point(v), nil
	}
	xs := make([]float64, s)
	ms := make([]float64, s)
	step := (b - a) / float64(s-1)
	// Cell i covers [x_i - step/2, x_i + step/2] clipped to [a, b]; its mass
	// is the Gaussian CDF difference across the cell.
	lo := a
	for i := 0; i < s; i++ {
		xs[i] = a + float64(i)*step
		hi := xs[i] + step/2
		if i == s-1 {
			xs[i] = b
			hi = b
		}
		ms[i] = gaussCDF(mean, sigma, hi) - gaussCDF(mean, sigma, lo)
		if ms[i] < 0 {
			ms[i] = 0
		}
		lo = hi
	}
	p, err := New(xs, ms)
	if err != nil {
		// The whole interval sits many sigmas from the mean: all cell
		// masses underflowed. Fall back to the nearest boundary point.
		v := mean
		if v < a {
			v = a
		}
		if v > b {
			v = b
		}
		return Point(v), nil
	}
	return p, nil
}

// gaussCDF is the cumulative distribution of N(mean, sigma²) at x.
func gaussCDF(mean, sigma, x float64) float64 {
	return 0.5 * math.Erfc(-(x-mean)/(sigma*math.Sqrt2))
}

// FromSamples builds a PDF directly from raw repeated measurements, each
// observation receiving equal mass. This is how the JapaneseVowel dataset's
// 7-29 raw samples per value are turned into pdfs (§4.3).
func FromSamples(obs []float64) (*PDF, error) {
	if len(obs) == 0 {
		return nil, ErrNoSamples
	}
	ms := make([]float64, len(obs))
	for i := range ms {
		ms[i] = 1
	}
	return New(obs, ms)
}

// NumSamples reports the number of distinct sample points.
func (p *PDF) NumSamples() int { return len(p.xs) }

// Min returns the smallest sample location (the a of the bounded domain).
func (p *PDF) Min() float64 { return p.xs[0] }

// Max returns the largest sample location (the b of the bounded domain).
func (p *PDF) Max() float64 { return p.xs[len(p.xs)-1] }

// X returns the i-th sample location.
func (p *PDF) X(i int) float64 { return p.xs[i] }

// Mass returns the probability mass at the i-th sample point.
func (p *PDF) Mass(i int) float64 {
	if i == 0 {
		return p.cum[0]
	}
	return p.cum[i] - p.cum[i-1]
}

// CDF returns P(X <= x).
func (p *PDF) CDF(x float64) float64 {
	// idx = number of sample points with location <= x.
	idx := sort.SearchFloat64s(p.xs, math.Nextafter(x, math.Inf(1)))
	if idx == 0 {
		return 0
	}
	return p.cum[idx-1]
}

// MassIn returns P(a < X <= b), the mass in the half-open interval (a, b]
// used by the interval machinery of §5.
func (p *PDF) MassIn(a, b float64) float64 {
	if b <= a {
		return 0
	}
	m := p.CDF(b) - p.CDF(a)
	if m < 0 {
		return 0
	}
	return m
}

// Mean returns the expected value, the representative the Averaging
// approach uses (§4.1).
func (p *PDF) Mean() float64 {
	sum := 0.0
	for i, x := range p.xs {
		sum += x * p.Mass(i)
	}
	return sum
}

// Variance returns the second central moment.
func (p *PDF) Variance() float64 {
	mu := p.Mean()
	sum := 0.0
	for i, x := range p.xs {
		d := x - mu
		sum += d * d * p.Mass(i)
	}
	return sum
}

// Median returns the smallest sample location at which the CDF reaches 1/2.
func (p *PDF) Median() float64 { return p.Quantile(0.5) }

// Quantile returns the smallest sample location x with CDF(x) >= q,
// clamping q to [0, 1]. Used for the percentile "artificial end points" of
// §7.3 when handling unbounded pdfs.
func (p *PDF) Quantile(q float64) float64 {
	if q <= 0 {
		return p.xs[0]
	}
	if q >= 1 {
		return p.xs[len(p.xs)-1]
	}
	idx := sort.Search(len(p.cum), func(i int) bool { return p.cum[i] >= q-massEps })
	if idx >= len(p.xs) {
		idx = len(p.xs) - 1
	}
	return p.xs[idx]
}

// SplitAt divides the distribution at split point z following §3.2: the
// left part keeps the sample points with location <= z renormalised by the
// left mass pL, the right part keeps the rest renormalised by 1-pL. A nil
// part is returned for a side with no mass.
func (p *PDF) SplitAt(z float64) (left, right *PDF, pL float64) {
	idx := sort.SearchFloat64s(p.xs, math.Nextafter(z, math.Inf(1)))
	if idx == 0 {
		return nil, p, 0
	}
	if idx == len(p.xs) {
		return p, nil, 1
	}
	pL = p.cum[idx-1]
	if pL <= massEps {
		return nil, p, 0
	}
	if pL >= 1-massEps {
		return p, nil, 1
	}
	left = &PDF{xs: p.xs[:idx], cum: make([]float64, idx)}
	for i := 0; i < idx; i++ {
		left.cum[i] = p.cum[i] / pL
	}
	left.cum[idx-1] = 1
	n := len(p.xs) - idx
	right = &PDF{xs: p.xs[idx:], cum: make([]float64, n)}
	pR := 1 - pL
	for i := 0; i < n; i++ {
		right.cum[i] = (p.cum[idx+i] - pL) / pR
	}
	right.cum[n-1] = 1
	return left, right, pL
}

// Mix returns the mixture distribution sum w_i · p_i of the given
// components. Weights need not be normalised; nil components are skipped.
// Used for the §2 missing-value technique: the "guess" distribution of an
// attribute is the (weighted) average of the pdfs of the tuples where the
// value is present.
func Mix(components []*PDF, weights []float64) (*PDF, error) {
	if len(components) != len(weights) {
		return nil, fmt.Errorf("pdf: %d components but %d weights", len(components), len(weights))
	}
	var xs, ms []float64
	for i, p := range components {
		if p == nil {
			continue
		}
		w := weights[i]
		if w < 0 || math.IsNaN(w) {
			return nil, ErrBadMass
		}
		if w == 0 {
			continue
		}
		for k := 0; k < p.NumSamples(); k++ {
			xs = append(xs, p.X(k))
			ms = append(ms, w*p.Mass(k))
		}
	}
	if len(xs) == 0 {
		return nil, ErrNoSamples
	}
	return New(xs, ms)
}

// Shift returns a copy of the distribution translated by d.
func (p *PDF) Shift(d float64) *PDF {
	xs := make([]float64, len(p.xs))
	for i, x := range p.xs {
		xs[i] = x + d
	}
	q := &PDF{xs: xs, cum: make([]float64, len(p.cum))}
	copy(q.cum, p.cum)
	return q
}

// Equal reports whether two PDFs have identical sample points and masses up
// to tolerance eps.
func (p *PDF) Equal(q *PDF, eps float64) bool {
	if len(p.xs) != len(q.xs) {
		return false
	}
	for i := range p.xs {
		if math.Abs(p.xs[i]-q.xs[i]) > eps || math.Abs(p.cum[i]-q.cum[i]) > eps {
			return false
		}
	}
	return true
}

// String renders a short human-readable description.
func (p *PDF) String() string {
	if len(p.xs) == 1 {
		return fmt.Sprintf("point(%g)", p.xs[0])
	}
	return fmt.Sprintf("pdf[%g,%g] s=%d mean=%.4g", p.Min(), p.Max(), len(p.xs), p.Mean())
}
