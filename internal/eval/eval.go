// Package eval measures classifier quality and construction cost: accuracy,
// confusion matrices, train/test and 10-fold cross-validation protocols
// (§4.3), and timing/counter harnesses for the efficiency study of §6.
//
// Every measurement is over a *forest.Forest (a single tree is a one-member
// forest) and every protocol takes a Trainer, so the AVG baseline, the UDT
// tree and the bagged and boosted ensembles are evaluated by one code path.
package eval

import (
	"errors"
	"math/rand"
	"runtime"
	"time"

	"udt/internal/boost"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/split"
)

// Result aggregates one evaluation run.
type Result struct {
	Accuracy  float64
	Confusion [][]float64   // [true class][predicted class] test weight
	BuildTime time.Duration // training, including compiling the model
	Search    split.Stats   // split-search work during construction
	Nodes     int
	Leaves    int
	Depth     int
}

// Trainer fits a model to a training set. The protocols take one, so a model
// kind is evaluated by supplying its trainer.
type Trainer func(*data.Dataset) (*forest.Forest, error)

// Tree trains one Distribution-based (UDT) tree.
func Tree(cfg core.Config) Trainer {
	return func(ds *data.Dataset) (*forest.Forest, error) {
		return fromTree(core.Build(ds, cfg))
	}
}

// Averaging trains the AVG baseline: one tree on the training pdfs collapsed
// to their means. Test tuples keep their uncertainty (the paper classifies
// uncertain test tuples with both approaches).
func Averaging(cfg core.Config) Trainer {
	return func(ds *data.Dataset) (*forest.Forest, error) {
		return fromTree(core.BuildAveraging(ds, cfg))
	}
}

// fromTree wraps a freshly built tree as a model, passing a build error on.
func fromTree(t *core.Tree, err error) (*forest.Forest, error) {
	if err != nil {
		return nil, err
	}
	return forest.FromTree(t)
}

// Bagged trains a bagged ensemble.
func Bagged(cfg forest.Config) Trainer {
	return func(ds *data.Dataset) (*forest.Forest, error) { return forest.Train(ds, cfg) }
}

// Boosted trains a boosted (SAMME) ensemble.
func Boosted(cfg boost.Config) Trainer {
	return func(ds *data.Dataset) (*forest.Forest, error) { return boost.Train(ds, cfg) }
}

// fold classifies the test set in one compiled batch and folds the
// predictions into an Accumulator. Batch results are identical at any worker
// count, so evaluation uses every available CPU.
func fold(f *forest.Forest, test *data.Dataset) *Accumulator {
	a := NewAccumulator(test.Classes)
	a.Add(test.Tuples, f.PredictBatch(test.Tuples, runtime.GOMAXPROCS(0)))
	return a
}

// Accuracy returns the fraction of test tuples whose predicted label (argmax
// of the classification distribution, §3.2) matches the true label, 0 on an
// empty test set.
func Accuracy(f *forest.Forest, test *data.Dataset) float64 { return fold(f, test).Accuracy() }

// Confusion returns the weight-weighted confusion matrix over the test set.
func Confusion(f *forest.Forest, test *data.Dataset) [][]float64 {
	return fold(f, test).Confusion()
}

// TrainTest trains a model on train and evaluates it on test.
func TrainTest(train, test *data.Dataset, fit Trainer) (Result, error) {
	start := time.Now()
	f, err := fit(train)
	if err != nil {
		return Result{}, err
	}
	build := time.Since(start)
	a := fold(f, test)
	stats := f.Stats()
	return Result{
		Accuracy:  a.Accuracy(),
		Confusion: a.Confusion(),
		BuildTime: build,
		Search:    stats.Search,
		Nodes:     stats.Nodes,
		Leaves:    stats.Leaves,
		Depth:     stats.Depth,
	}, nil
}

// CrossValidate runs stratified k-fold cross-validation and returns the
// pooled result: accuracy weighted by test-fold size, work counters summed,
// depth maximised. The folds depend on ds, k and rng alone, so trainers run
// from equal rng states see identical folds.
func CrossValidate(ds *data.Dataset, k int, fit Trainer, rng *rand.Rand) (Result, error) {
	if rng == nil {
		return Result{}, errors.New("eval: nil rng")
	}
	folds, err := ds.StratifiedKFold(k, rng)
	if err != nil {
		return Result{}, err
	}
	var pooled Result
	var correctW, totalW float64
	for _, f := range folds {
		r, err := TrainTest(f.Train, f.Test, fit)
		if err != nil {
			return Result{}, err
		}
		correctW += r.Accuracy * float64(f.Test.Len())
		totalW += float64(f.Test.Len())
		pooled.BuildTime += r.BuildTime
		pooled.Search.Add(r.Search)
		pooled.Nodes += r.Nodes
		pooled.Leaves += r.Leaves
		if r.Depth > pooled.Depth {
			pooled.Depth = r.Depth
		}
	}
	pooled.Accuracy = correctW / totalW
	return pooled, nil
}
