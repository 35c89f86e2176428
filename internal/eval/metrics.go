package eval

import (
	"errors"
	"math"
	"runtime"

	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/par"
)

// Probabilistic and per-class quality metrics. The paper's classifier
// returns a distribution over class labels for every test tuple (§3.2);
// beyond argmax accuracy, proper scoring rules measure how well calibrated
// those distributions are.

// ClassMetrics holds per-class precision, recall and F1 derived from a
// confusion matrix.
type ClassMetrics struct {
	Class     string
	Precision float64
	Recall    float64
	F1        float64
	Support   float64 // true weight of the class in the test set
}

// PerClass computes per-class metrics from a confusion matrix (rows: true
// class, columns: predicted).
func PerClass(classes []string, confusion [][]float64) ([]ClassMetrics, error) {
	if len(confusion) != len(classes) {
		return nil, errors.New("eval: confusion matrix does not match class count")
	}
	out := make([]ClassMetrics, len(classes))
	for c := range classes {
		if len(confusion[c]) != len(classes) {
			return nil, errors.New("eval: confusion matrix is not square")
		}
		var tp, fn, fp float64
		tp = confusion[c][c]
		for o := range classes {
			if o != c {
				fn += confusion[c][o]
				fp += confusion[o][c]
			}
		}
		m := ClassMetrics{Class: classes[c], Support: tp + fn}
		if tp+fp > 0 {
			m.Precision = tp / (tp + fp)
		}
		if tp+fn > 0 {
			m.Recall = tp / (tp + fn)
		}
		if m.Precision+m.Recall > 0 {
			m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		}
		out[c] = m
	}
	return out, nil
}

// MacroF1 averages per-class F1 scores with equal class weight.
func MacroF1(metrics []ClassMetrics) float64 {
	if len(metrics) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range metrics {
		sum += m.F1
	}
	return sum / float64(len(metrics))
}

// probFloor clamps the probability assigned to the true label away from
// zero, keeping the log-loss finite.
const probFloor = 1e-15

// Evaluate classifies the test set once through the compiled engine and
// derives the confusion matrix, the mean Brier score and the mean log-loss
// from that single batch of distributions. The Brier score is the squared
// distance between a tuple's distribution and its one-hot true label; the
// log-loss is the negative log-likelihood (in nats) of the true label. Lower
// is better for both, and both are 0 on an empty test set.
func Evaluate(f *forest.Forest, test *data.Dataset) (conf [][]float64, brier, logLoss float64) {
	dists := f.ClassifyBatch(test.Tuples, runtime.GOMAXPROCS(0))
	preds := make([]int, len(dists))
	for i, tu := range test.Tuples {
		d := dists[i]
		preds[i] = par.Argmax(d)
		for c, p := range d {
			if c == tu.Class {
				p--
			}
			brier += p * p
		}
		logLoss -= math.Log(max(d[tu.Class], probFloor))
	}
	if n := float64(test.Len()); n > 0 {
		brier /= n
		logLoss /= n
	}
	a := NewAccumulator(test.Classes)
	a.Add(test.Tuples, preds)
	return a.Confusion(), brier, logLoss
}
