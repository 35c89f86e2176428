// Package udt is a Go implementation of "Decision Trees for Uncertain
// Data" (Tsang, Kao, Yip, Ho, Lee — ICDE 2009; extended in IEEE TKDE 23(1),
// 2011): decision tree classifiers whose training and test tuples carry
// numerical attributes represented by probability density functions (pdfs)
// rather than point values.
//
// The package offers two construction approaches:
//
//   - Averaging (AVG): each pdf is collapsed to its expected value and a
//     conventional C4.5-style tree is built — the baseline of §4.1.
//   - Distribution-based (UDT): the full pdfs participate in split
//     selection, with tuples fractionally partitioned when a split point
//     falls inside their pdf domain — the contribution of §4.2.
//
// Because UDT must consider every pdf sample point as a candidate split, it
// is s times more expensive than AVG. The pruning strategies of §5 recover
// most of that cost without changing the resulting tree:
//
//   - StrategyBP skips the interiors of empty and homogeneous end-point
//     intervals (Theorems 1-2),
//   - StrategyLP lower-bounds heterogeneous intervals per attribute (Eq. 3),
//   - StrategyGP prunes with a global threshold across attributes,
//   - StrategyES additionally samples end points (§5.3), typically pruning
//     97%+ of entropy calculations.
//
// Classification of an uncertain test tuple descends the tree splitting the
// tuple's probability mass at every internal node and returns a probability
// distribution over class labels (§3.2).
//
// Tree construction parallelises on two orthogonal axes, both off by
// default and both deterministic (the built tree and every split's
// tie-breaking are identical to the serial build):
//
//   - Config.Parallelism bounds the number of concurrent subtree builds —
//     effective once the tree has branched.
//   - Config.Workers bounds the number of concurrent split-search workers
//     inside a single node — effective from the very first (root) split,
//     where every tuple and attribute is scanned. Workers share the §5.2
//     global pruning threshold atomically, so the pruning power of
//     StrategyGP/StrategyES is preserved.
//
// Up to Parallelism × Workers goroutines may run during one build.
//
// For serving, Tree.Compile interns a built (or JSON-loaded) tree into a
// Compiled engine: a hash-consed node arena (contiguous arrays in
// post-order, identical subtrees stored once) classified by an iterative,
// allocation-free descent, with ClassifyBatch/PredictBatch spreading a
// batch over a bounded number of workers. Ensembles compile all their
// members into one arena, which the binary model container stores as is. The compiled path returns exactly
// the distributions of Tree.Classify; cmd/udtserve exposes it over HTTP.
//
// TrainForest builds a bagged ensemble of compiled trees: bootstrap
// resamples, optional per-tree random attribute subsets, deterministic
// per-tree RNG streams (the forest is identical at any ForestConfig.Workers
// value), and out-of-bag accuracy/Brier estimates computed during training.
// Ensemble classification averages the member distributions — the paper's
// distribution semantics lifted across trees — and forests serialise to a
// versioned multi-tree JSON container that cmd/udtserve loads
// interchangeably with single-tree models.
//
// Evaluation has one path for every model kind. Accuracy, Confusion and
// Evaluate take a *Forest (TreeModel wraps a built tree), and the protocols
// TrainTest and CrossValidate take a Trainer: TreeTrainer, AveragingTrainer
// (the paper's AVG baseline, which keeps the test pdfs), BaggedTrainer or
// BoostedTrainer. CrossValidate runs from equal rng states deal identical
// folds, so the kinds compare fold for fold.
//
// # Quick start
//
//	ds := udt.NewDataset("fever", 1, []string{"healthy", "fever"})
//	p, _ := udt.GaussianPDF(37.6, 0.2, 37.0, 38.2, 100) // noisy thermometer
//	ds.Add(1, p)
//	// ... add more tuples ...
//	tree, err := udt.Build(ds, udt.Config{Strategy: udt.StrategyES, PostPrune: true})
//	dist := tree.Classify(testTuple) // probability per class
//
// See the examples directory for runnable programs and ARCHITECTURE.md for
// the package layers, the concurrency model, and the train/serve flow.
package udt
