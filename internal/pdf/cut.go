package pdf

// Step is one renormalisation SplitAt applies to the cumulative masses of a
// piece it cuts off: v ↦ (v − sub) / div. A left piece divides by its mass
// pL (sub is 0, and v − 0 == v exactly); a right piece subtracts pL and
// divides by 1 − pL.
type Step struct{ sub, div float64 }

// Cut is SplitAt at z without materialising the pieces. The pdf it cuts is
// the piece that nested SplitAt calls would have produced from p: p's
// samples [lo, hi), their cumulative masses renormalised by chain, oldest
// step first. It returns k, which divides that piece into [lo, k) and
// [k, hi) where SplitAt on the materialised piece would, and the left mass
// pL, bit for bit SplitAt's. When pL is 0 or 1 nothing is cut; otherwise
// left and right are the steps the two pieces append to chain.
//
// Only the one cumulative mass at the cut is read, and the chain is applied
// to it with SplitAt's float operations in SplitAt's order. SplitAt also
// sets each piece's last mass to exactly 1, but the cut reads index k−1,
// which is below hi−1 whenever a cut is possible, so no overridden mass is
// ever read.
//
//udt:hotpath
func (p *PDF) Cut(lo, hi int, chain []Step, z float64) (k int, pL float64, left, right Step) {
	// The first sample greater than z, where SplitAt's search lands too;
	// no sample is greater than a NaN z, so all go left, as there.
	i, j := lo, hi
	for i < j {
		h := int(uint(i+j) >> 1)
		if z < p.xs[h] {
			j = h
		} else {
			i = h + 1
		}
	}
	if i == lo {
		return i, 0, left, right
	}
	if i == hi {
		return i, 1, left, right
	}
	pL = p.cum[i-1]
	for _, s := range chain {
		pL = (pL - s.sub) / s.div
	}
	if pL <= massEps {
		return i, 0, left, right
	}
	if pL >= 1-massEps {
		return i, 1, left, right
	}
	return i, pL, Step{div: pL}, Step{sub: pL, div: 1 - pL}
}
