package eval

import "udt/internal/data"

// Accumulator folds streamed batches of predictions into the running
// evaluation state — hit counts and the weight-weighted confusion matrix —
// so a test set can flow through the compiled engine in fixed-size chunks
// without ever being resident as a whole. Accuracy, Confusion and the
// protocols are single-batch uses of the same fold, so the streamed and
// materialised evaluations cannot disagree.
type Accumulator struct {
	confusion [][]float64
	correct   int
	total     int
}

// NewAccumulator returns an empty accumulator over the given class labels
// (the model's label order; predictions and tuple classes index into it).
func NewAccumulator(classes []string) *Accumulator {
	m := make([][]float64, len(classes))
	for i := range m {
		m[i] = make([]float64, len(classes))
	}
	return &Accumulator{confusion: m}
}

// Add folds one batch of tuples and their predictions into the running
// state. Tuples stream in order, so the floating-point confusion sums match
// a single whole-set pass exactly.
func (a *Accumulator) Add(tuples []*data.Tuple, preds []int) {
	for i, tu := range tuples {
		a.total++
		if preds[i] == tu.Class {
			a.correct++
		}
		a.confusion[tu.Class][preds[i]] += tu.Weight
	}
}

// Merge folds another accumulator's state into a, so per-shard accumulators
// built over disjoint batches (e.g. one per worker of a partitioned
// evaluation) combine into whole-set metrics. Both accumulators must have
// been created over the same class vocabulary; Merge panics on a class-arity
// mismatch, which can only arise from mixing models. b is left untouched.
func (a *Accumulator) Merge(b *Accumulator) {
	if len(a.confusion) != len(b.confusion) {
		panic("eval: merging accumulators over different class vocabularies")
	}
	a.correct += b.correct
	a.total += b.total
	for i := range a.confusion {
		for j := range a.confusion[i] {
			a.confusion[i][j] += b.confusion[i][j]
		}
	}
}

// Total reports the number of tuples folded in so far.
func (a *Accumulator) Total() int { return a.total }

// Accuracy returns the fraction of tuples predicted correctly so far (0
// before any batch).
func (a *Accumulator) Accuracy() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.correct) / float64(a.total)
}

// Confusion returns the running weight-weighted confusion matrix
// ([true class][predicted class]). The caller must not mutate it.
func (a *Accumulator) Confusion() [][]float64 { return a.confusion }
