package forest

import (
	"fmt"
	"sort"

	"udt/internal/data"
)

// Staged and early-exit inference.
//
// Every ensemble carries a fixed evaluation order: members sorted by
// descending vote weight, ties keeping member index order (a stable sort, so
// a bagged ensemble's uniform weights leave the order exactly the member
// order). All classification — full, staged, and early-exit — walks this one
// order, which makes the stage-k partial accumulation bit-for-bit a prefix of
// the full floating-point summation.
//
// Early exit stops the walk once the argmax is mathematically settled. After
// k members the remaining members j >= k can add at most
//
//	exitUB[k*nc+c] = sum_{j>=k} weight_j * ub_j[c]
//
// to class c, where ub_j is the member's per-class emission upper bound
// (core.Compiled.ClassUpperBounds: no classification of any tuple can assign
// class c more than ub_j[c] of its mass). So when the current leader's margin
// over every other class exceeds that class's remaining bound — plus a slack
// absorbing floating-point rounding of the forgone additions — the leader
// cannot be overtaken, and because the margin is then strictly positive in
// the full sum too, the full evaluation's argmax (with its lowest-index
// tie-break) is exactly the leader. Early exit therefore returns byte-
// identical predictions to full evaluation, by construction.

// exitSlackRel scales the early-exit safety slack: exitSlack is
// exitSlackRel times the total vote weight, many orders of magnitude above
// the rounding error a float64 summation of that mass can accumulate and as
// far below any margin a real ensemble decides by.
const exitSlackRel = 1e-9

// initStaged precomputes the evaluation order, the per-stage remaining
// vote-mass bounds, and the exit slack. Called once, by assemble; the forest
// is immutable afterwards.
func (f *Forest) initStaged() {
	n := len(f.members)
	nc := len(f.Classes)
	f.order = make([]int, n)
	for i := range f.order {
		f.order[i] = i
	}
	sort.SliceStable(f.order, func(a, b int) bool {
		return f.members[f.order[a]].weight > f.members[f.order[b]].weight
	})
	f.exitUB = make([]float64, (n+1)*nc)
	total := 0.0
	for k := n - 1; k >= 0; k-- {
		m := &f.members[f.order[k]]
		ub := m.compiled.ClassUpperBounds()
		total += m.weight
		for c := 0; c < nc; c++ {
			f.exitUB[k*nc+c] = f.exitUB[(k+1)*nc+c] + m.weight*ub[c]
		}
	}
	f.exitSlack = exitSlackRel * total
}

// StageCount reports the number of stages — one per member — a staged
// evaluation can stop at.
func (f *Forest) StageCount() int { return len(f.members) }

// EvalOrder returns a copy of the member evaluation order: member indices
// sorted by descending vote weight, ties in member order. Stage k evaluates
// exactly the members EvalOrder()[:k].
func (f *Forest) EvalOrder() []int {
	out := make([]int, len(f.order))
	copy(out, f.order)
	return out
}

// checkStage validates a stage count against [1, StageCount()].
func (f *Forest) checkStage(k int) error {
	if k < 1 || k > len(f.members) {
		return fmt.Errorf("forest: stage %d out of [1, %d]", k, len(f.members))
	}
	return nil
}

// ClassifyStaged returns the ensemble distribution after evaluating only the
// first k members of the evaluation order, normalised by their vote weight.
// ClassifyStaged(tu, StageCount()) is exactly Classify(tu).
func (f *Forest) ClassifyStaged(tu *data.Tuple, k int) ([]float64, error) {
	if err := f.checkStage(k); err != nil {
		return nil, err
	}
	out := make([]float64, len(f.Classes))
	s := fscratchPool.Get().(*fscratch)
	total := f.accumulateStaged(tu, out, s, k)
	fscratchPool.Put(s)
	scaleDist(out, total)
	return out, nil
}

// PredictStaged returns the most probable class after evaluating only the
// first k members of the evaluation order (lowest index winning ties).
func (f *Forest) PredictStaged(tu *data.Tuple, k int) (int, error) {
	if err := f.checkStage(k); err != nil {
		return 0, err
	}
	s := fscratchPool.Get().(*fscratch)
	out := s.outBuf(len(f.Classes))
	f.accumulateStaged(tu, out, s, k)
	best := argmax(out)
	fscratchPool.Put(s)
	return best, nil
}

// accumulateStaged sums the weight-scaled distributions of the first k
// members of the evaluation order into out (not zeroed), returning the vote
// weight that contributed. With k == len(f.members) it is the full
// accumulation.
//
//udt:hotpath
func (f *Forest) accumulateStaged(tu *data.Tuple, out []float64, s *fscratch, k int) float64 {
	total := 0.0
	for oi := 0; oi < k; oi++ {
		m := &f.members[f.order[oi]]
		m.compiled.ClassifyIntoWeighted(s.projected(tu, m), out, m.weight)
		total += m.weight
	}
	return total
}

// PredictEarlyExit returns the most probable class for the tuple — byte-
// identical to Predict — and the number of members actually evaluated before
// the argmax was settled.
func (f *Forest) PredictEarlyExit(tu *data.Tuple) (class, membersEvaluated int) {
	s := fscratchPool.Get().(*fscratch)
	class, membersEvaluated = f.predictEarlyExit(tu, s)
	fscratchPool.Put(s)
	return class, membersEvaluated
}

// PredictBatchEarlyExit predicts every tuple with early exit, computed by up
// to workers goroutines. preds is positionally identical to
// PredictBatch(tuples, workers); evaluated[i] counts the members evaluated
// for tuple i (identical at any workers value).
func (f *Forest) PredictBatchEarlyExit(tuples []*data.Tuple, workers int) (preds, evaluated []int) {
	preds = make([]int, len(tuples))
	evaluated = make([]int, len(tuples))
	f.forEach(tuples, workers, func(i int, s *fscratch) {
		preds[i], evaluated[i] = f.predictEarlyExit(tuples[i], s)
	})
	return preds, evaluated
}

// predictEarlyExit walks the evaluation order, checking after each member
// whether the remaining vote mass can still overturn the current leader.
//
//udt:hotpath
func (f *Forest) predictEarlyExit(tu *data.Tuple, s *fscratch) (class, membersEvaluated int) {
	nc := len(f.Classes)
	out := s.outBuf(nc)
	n := len(f.members)
	for oi := 0; oi < n; oi++ {
		m := &f.members[f.order[oi]]
		m.compiled.ClassifyIntoWeighted(s.projected(tu, m), out, m.weight)
		k := oi + 1
		if k == n {
			break
		}
		lead := argmax(out)
		if f.settled(out, lead, k, nc) {
			return lead, k
		}
	}
	return argmax(out), n
}

// settled reports whether, after k members, the leader's margin over every
// other class exceeds that class's remaining vote-mass bound plus the
// rounding slack — at which point no continuation of the evaluation can
// change the argmax.
//
//udt:hotpath
func (f *Forest) settled(out []float64, lead, k, nc int) bool {
	bound := f.exitUB[k*nc : (k+1)*nc]
	leadMass := out[lead]
	for c := 0; c < nc; c++ {
		if c == lead {
			continue
		}
		if leadMass-out[c] < bound[c]+f.exitSlack {
			return false
		}
	}
	return true
}
