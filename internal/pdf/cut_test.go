package pdf

import (
	"math"
	"math/rand"
	"testing"
)

// edgePDF draws a pdf of 1..40 samples whose masses span twelve orders of
// magnitude, so that renormalised pieces often carry a mass within 1e-12 of
// 0 or 1 and SplitAt's massEps clamps decide the cut.
func edgePDF(rng *rand.Rand) *PDF {
	s := 1 + rng.Intn(40)
	xs := make([]float64, s)
	ms := make([]float64, s)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
		ms[i] = 1
		if rng.Intn(3) == 0 {
			ms[i] = math.Pow(10, -float64(rng.Intn(14))) * (0.5 + rng.Float64())
		}
	}
	ms[rng.Intn(s)] = 1
	return MustNew(xs, ms)
}

// cutPoint picks a split point for a piece with sample locations xs: off
// either end, exactly on a sample, or between two.
func cutPoint(rng *rand.Rand, xs []float64) float64 {
	lo, hi := xs[0], xs[len(xs)-1]
	switch rng.Intn(5) {
	case 0:
		return lo - 1
	case 1:
		return hi + 1
	case 2:
		return xs[rng.Intn(len(xs))]
	default:
		return lo + rng.Float64()*(hi-lo)
	}
}

// windowMass is the cumulative mass of sample j of a window as the
// materialised piece holds it: the chain applied to p's mass, oldest step
// first, except at the window's last sample, which SplitAt sets to 1.
func windowMass(p *PDF, j, hi int, chain []Step) float64 {
	if j == hi-1 {
		return 1
	}
	v := p.cum[j]
	for _, s := range chain {
		v = (v - s.sub) / s.div
	}
	return v
}

// TestCutMatchesNestedSplitAt pins Cut to the allocating SplitAt it
// replaces on the descent path: along random chains of up to 14 nested
// cuts, each going on with the left or the right piece, the cut index and
// pL must equal SplitAt's on the materialised piece bit for bit at every
// level, and the final piece's locations and cumulative masses, read
// through the window and its chain, must equal the materialised piece's.
func TestCutMatchesNestedSplitAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges, straddles, longest := 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		p := edgePDF(rng)
		piece, lo, hi := p, 0, p.NumSamples()
		var chain []Step
		for level := 0; level < 14; level++ {
			z := cutPoint(rng, piece.xs)
			wl, wr, wpL := piece.SplitAt(z)
			k, pL, ls, rs := p.Cut(lo, hi, chain, z)
			if math.Float64bits(pL) != math.Float64bits(wpL) {
				t.Fatalf("trial %d level %d: Cut pL %v, SplitAt %v", trial, level, pL, wpL)
			}
			if raw := piece.CDF(z); raw > 0 && raw < 1 && (raw < 1e-11 || raw > 1-1e-11) {
				edges++
			}
			if wl == nil || wr == nil {
				continue // pL is 0 or 1: nothing was cut
			}
			straddles++
			if k-lo != wl.NumSamples() {
				t.Fatalf("trial %d level %d: Cut at %d of [%d, %d), SplitAt left has %d samples", trial, level, k, lo, hi, wl.NumSamples())
			}
			// Go on with one piece; the chain grows like the descent's.
			next := append([]Step(nil), chain...)
			if rng.Intn(2) == 0 {
				piece, hi, chain = wl, k, append(next, ls)
			} else {
				piece, lo, chain = wr, k, append(next, rs)
			}
			longest = max(longest, len(chain))
			if piece.NumSamples() != hi-lo {
				t.Fatalf("trial %d level %d: window [%d, %d) for a %d-sample piece", trial, level, lo, hi, piece.NumSamples())
			}
			for j := lo; j < hi; j++ {
				if p.xs[j] != piece.xs[j-lo] {
					t.Fatalf("trial %d level %d: location %d differs", trial, level, j)
				}
				if got, want := windowMass(p, j, hi, chain), piece.cum[j-lo]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d level %d: mass %d through the window %v, piece %v", trial, level, j, got, want)
				}
			}
		}
	}
	// The chains must reach the clamps and real depth, or the test proves
	// little.
	if edges < 100 || straddles < 5000 || longest < 10 {
		t.Fatalf("weak coverage: %d cuts near a massEps clamp, %d straddles, longest chain %d", edges, straddles, longest)
	}
}

// TestCutSearchEdges: off-range, infinite and NaN split points find the
// same side as SplitAt's search.
func TestCutSearchEdges(t *testing.T) {
	p := MustNew([]float64{-1, 0, 2, 5}, []float64{1, 2, 3, 4})
	for _, z := range []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 1, 2, 5, 6,
		math.MaxFloat64, math.Inf(1), math.NaN()} {
		wl, _, wpL := p.SplitAt(z)
		k, pL, _, _ := p.Cut(0, p.NumSamples(), nil, z)
		want := 0
		if wl != nil {
			want = wl.NumSamples()
		}
		if math.Float64bits(pL) != math.Float64bits(wpL) || (pL > 0 && pL < 1 && k != want) {
			t.Errorf("z=%v: Cut (%d, %v), SplitAt (%d, %v)", z, k, pL, want, wpL)
		}
	}
}

func BenchmarkCut(b *testing.B) {
	p := benchPDF(b, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Cut(0, p.NumSamples(), nil, p.X(i%p.NumSamples()))
	}
}
