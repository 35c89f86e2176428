package udt

import (
	"io"
	"math/rand"

	"udt/internal/boost"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/eval"
	"udt/internal/forest"
	"udt/internal/pdf"
	"udt/internal/split"
)

// Core types re-exported from the implementation packages. The aliases make
// the whole system usable through this single package.
type (
	// PDF is a bounded probability distribution approximated by discrete
	// sample points; the uncertainty model for numerical attributes.
	PDF = pdf.PDF
	// Dataset is a collection of uncertain tuples plus schema metadata.
	Dataset = data.Dataset
	// Tuple is one example: pdfs for numeric attributes, discrete
	// distributions for categorical ones, a class label and a weight.
	Tuple = data.Tuple
	// Attribute describes one feature (numeric or categorical).
	Attribute = data.Attribute
	// CatDist is a discrete distribution over a categorical domain.
	CatDist = data.CatDist
	// Fold is one train/test split of a cross-validation.
	Fold = data.Fold
	// Points is a point-valued matrix prior to uncertainty injection.
	Points = data.Points
	// InjectConfig controls uncertainty injection onto point data (§4.3).
	InjectConfig = data.InjectConfig
	// ErrorModel selects Gaussian or uniform synthetic error pdfs.
	ErrorModel = data.ErrorModel
	// RowSource is a streaming iterator over uncertain tuples: the attribute
	// schema is fixed at construction, the class vocabulary accumulates as
	// rows are consumed. It is the unit of larger-than-memory ingestion.
	RowSource = data.RowSource
	// CSVSource streams tuples from the CSV interchange format.
	CSVSource = data.CSVSource
	// Tree is a built decision tree classifier.
	Tree = core.Tree
	// Node is one tree node.
	Node = core.Node
	// Compiled is a tree of a hash-consed node arena, made by
	// Tree.Compile, for fast, allocation-free batch inference — the
	// serving path of cmd/udtserve. It is immutable and safe for
	// concurrent use.
	Compiled = core.Compiled
	// Config controls tree construction, including the two parallelism
	// knobs: Parallelism (concurrent subtree builds) and Workers
	// (concurrent split-search workers inside each node). Both default to
	// serial; both preserve the exact serial tree and split tie-breaking.
	Config = core.Config
	// BuildStats summarises construction work.
	BuildStats = core.BuildStats
	// Rule is a root-to-leaf classification rule.
	Rule = core.Rule
	// Forest is an ensemble of compiled uncertain decision trees — bagged
	// (uniform votes over bootstrap resamples) or boosted (SAMME vote
	// weights); classification is the vote-weighted average of the member
	// distributions. A single-tree JSON document decodes as a one-member
	// Forest of kind "tree". Immutable and safe for concurrent use.
	Forest = forest.Forest
	// ForestConfig controls ensemble training: tree count, bootstrap sample
	// ratio, per-tree attribute subsets, seed, parallel member builds, and
	// the member tree configuration.
	ForestConfig = forest.Config
	// BoostConfig controls boosted ensemble training: rounds, learning rate,
	// prediction workers, and the member tree configuration.
	BoostConfig = boost.Config
	// OOBStats is the out-of-bag accuracy/Brier estimate a forest computes
	// during training.
	OOBStats = forest.OOBStats
	// Measure selects the dispersion function (entropy, Gini, gain ratio).
	Measure = split.Measure
	// Strategy selects the split-search pruning algorithm of §5.
	Strategy = split.Strategy
	// SearchStats counts split-search work (the paper's cost metric).
	SearchStats = split.Stats
	// Result aggregates an evaluation run.
	Result = eval.Result
	// Trainer fits a model to a training set. The evaluation protocols
	// (TrainTest, CrossValidate) take one, so every model kind is evaluated
	// by one code path.
	Trainer = eval.Trainer
)

// Dispersion measures (§4.1, §7.4).
const (
	Entropy   = split.Entropy
	Gini      = split.Gini
	GainRatio = split.GainRatio
)

// Split-search strategies (§4.2, §5), in ascending pruning power.
const (
	StrategyUDT = split.UDT // exhaustive over all pdf sample points
	StrategyBP  = split.BP  // prune empty/homogeneous interval interiors
	StrategyLP  = split.LP  // + per-attribute bounding of heterogeneous intervals
	StrategyGP  = split.GP  // + global pruning threshold across attributes
	StrategyES  = split.ES  // + end-point sampling
)

// Error models for uncertainty injection (§4.3).
const (
	GaussianModel = data.GaussianModel
	UniformModel  = data.UniformModel
)

// NewPDF builds a PDF from sample locations and masses (normalised).
func NewPDF(xs, masses []float64) (*PDF, error) { return pdf.New(xs, masses) }

// PointPDF returns the degenerate distribution at v.
func PointPDF(v float64) *PDF { return pdf.Point(v) }

// UniformPDF returns the uniform distribution on [a, b] with s samples —
// the quantisation-error model of §4.3.
func UniformPDF(a, b float64, s int) (*PDF, error) { return pdf.Uniform(a, b, s) }

// GaussianPDF returns the Gaussian N(mean, sigma²) truncated to [a, b] and
// renormalised, with s samples — the random-noise model of §4.3.
func GaussianPDF(mean, sigma, a, b float64, s int) (*PDF, error) {
	return pdf.Gaussian(mean, sigma, a, b, s)
}

// PDFFromSamples models a pdf directly from raw repeated measurements,
// each observation receiving equal mass (the JapaneseVowel path of §4.3).
func PDFFromSamples(obs []float64) (*PDF, error) { return pdf.FromSamples(obs) }

// NewDataset allocates an empty dataset with numAttrs numeric attributes
// and the given class labels.
func NewDataset(name string, numAttrs int, classes []string) *Dataset {
	return data.NewDataset(name, numAttrs, classes)
}

// NewCatPoint returns a categorical distribution concentrated on value v of
// an n-value domain.
func NewCatPoint(v, n int) CatDist { return data.NewCatPoint(v, n) }

// Build constructs a Distribution-based (UDT) decision tree from the
// uncertain dataset.
func Build(ds *Dataset, cfg Config) (*Tree, error) { return core.Build(ds, cfg) }

// BuildAveraging constructs an Averaging (AVG) decision tree: pdfs are
// collapsed to their means before construction.
func BuildAveraging(ds *Dataset, cfg Config) (*Tree, error) { return core.BuildAveraging(ds, cfg) }

// TrainForest builds a bagged ensemble of Distribution-based trees:
// bootstrap-resampled tuples, optional per-tree random attribute subsets,
// deterministic per-tree RNG streams (the result is identical at any
// cfg.Workers value), and out-of-bag accuracy/Brier computed during
// training. Ensemble classification is distribution averaging across the
// compiled members.
func TrainForest(ds *Dataset, cfg ForestConfig) (*Forest, error) { return forest.Train(ds, cfg) }

// TrainBoosted builds a boosted weighted ensemble (SAMME over
// Distribution-based trees): each round trains on the current fractional
// tuple weights — the paper-native weighting of §3.2 — measures the
// weighted training error, derives the member's vote weight, and reweights
// the misclassified tuples. The result is a Forest of kind "boosted" that
// serialises, loads and serves through the same container as bagged
// ensembles, and training is byte-identical at any cfg.Workers value.
func TrainBoosted(ds *Dataset, cfg BoostConfig) (*Forest, error) { return boost.Train(ds, cfg) }

// Inject converts point-valued data into an uncertain dataset by fitting an
// error model of relative width cfg.W with cfg.S sample points per pdf
// (§4.3).
func Inject(p *Points, cfg InjectConfig) (*Dataset, error) { return data.Inject(p, cfg) }

// ReadCSV parses a dataset from the CSV interchange format (plain floats
// for point values, "x@mass;x@mass;..." cells for pdfs), materialising
// every tuple — a Collect over NewCSVSource.
func ReadCSV(r io.Reader, name string) (*Dataset, error) { return data.ReadCSV(r, name) }

// NewCSVSource reads the CSV header and returns a source streaming the
// remaining rows one tuple at a time.
func NewCSVSource(r io.Reader, name string) (*CSVSource, error) { return data.NewCSVSource(r, name) }

// Collect drains a row source into a materialised, validated dataset.
func Collect(src RowSource) (*Dataset, error) { return data.Collect(src) }

// CollectChunked drains a row source in windows of at most chunkSize
// tuples, invoking fn once per window — constant-memory ingestion for
// streaming classification and evaluation.
func CollectChunked(src RowSource, chunkSize int, fn func(chunk *Dataset) error) error {
	return data.CollectChunked(src, chunkSize, fn)
}

// Reservoir drains a row source keeping a uniform random sample of at most
// n tuples (deterministic for a fixed seed), so training can bound resident
// tuples on files larger than memory.
func Reservoir(src RowSource, n int, seed int64) (*Dataset, error) {
	return data.Reservoir(src, n, seed)
}

// WriteCSV writes a dataset in the CSV interchange format.
func WriteCSV(w io.Writer, ds *Dataset) error { return data.WriteCSV(w, ds) }

// TreeModel wraps a built tree as the one-member Forest that evaluation,
// serving and the model containers take.
func TreeModel(t *Tree) (*Forest, error) { return forest.FromTree(t) }

// TreeTrainer trains one Distribution-based (UDT) tree.
func TreeTrainer(cfg Config) Trainer { return eval.Tree(cfg) }

// AveragingTrainer trains the Averaging (AVG) baseline on the training pdfs'
// means; test tuples keep their uncertainty.
func AveragingTrainer(cfg Config) Trainer { return eval.Averaging(cfg) }

// BaggedTrainer trains a bagged ensemble (TrainForest).
func BaggedTrainer(cfg ForestConfig) Trainer { return eval.Bagged(cfg) }

// BoostedTrainer trains a boosted ensemble (TrainBoosted).
func BoostedTrainer(cfg BoostConfig) Trainer { return eval.Boosted(cfg) }

// Accuracy returns the fraction of test tuples the model predicts correctly.
func Accuracy(f *Forest, test *Dataset) float64 { return eval.Accuracy(f, test) }

// Confusion returns the model's confusion matrix over the test set.
func Confusion(f *Forest, test *Dataset) [][]float64 { return eval.Confusion(f, test) }

// Evaluate classifies the test set once through the compiled engine and
// returns the confusion matrix, Brier score and log-loss from that single
// pass (lower is better for both scores).
func Evaluate(f *Forest, test *Dataset) (conf [][]float64, brier, logLoss float64) {
	return eval.Evaluate(f, test)
}

// TrainTest trains a model on train and evaluates it on test.
func TrainTest(train, test *Dataset, fit Trainer) (Result, error) {
	return eval.TrainTest(train, test, fit)
}

// CrossValidate runs stratified k-fold cross-validation (§4.3 protocol).
// Trainers run from equal rng states see identical folds.
func CrossValidate(ds *Dataset, k int, fit Trainer, rng *rand.Rand) (Result, error) {
	return eval.CrossValidate(ds, k, fit, rng)
}

// ClassMetrics holds per-class precision, recall and F1.
type ClassMetrics = eval.ClassMetrics

// WidthPoint is one measured point of a §4.4 width-tuning sweep.
type WidthPoint = eval.WidthPoint

// PerClass derives per-class precision/recall/F1 from a confusion matrix.
func PerClass(classes []string, confusion [][]float64) ([]ClassMetrics, error) {
	return eval.PerClass(classes, confusion)
}

// MacroF1 averages per-class F1 scores.
func MacroF1(metrics []ClassMetrics) float64 { return eval.MacroF1(metrics) }

// TuneWidth estimates a good uncertainty width w per §4.4: repeated
// cross-validation over candidate widths, returning the midpoint of the
// plateau statistically indistinguishable from the best.
func TuneWidth(p *Points, ws []float64, s int, model ErrorModel, cfg Config, folds, repeats int, rng *rand.Rand) (float64, []WidthPoint, error) {
	return eval.TuneWidth(p, ws, s, model, cfg, folds, repeats, rng)
}

// FillMissing substitutes each missing numeric value with the weighted
// average pdf of the attribute's observed values (the §2 missing-value
// technique).
func FillMissing(ds *Dataset) (*Dataset, error) { return data.FillMissing(ds) }

// MixPDF returns the weighted mixture of the given distributions.
func MixPDF(components []*PDF, weights []float64) (*PDF, error) {
	return pdf.Mix(components, weights)
}
