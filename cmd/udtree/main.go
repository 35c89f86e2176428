// Command udtree trains, inspects and applies uncertain decision trees on
// CSV data (see internal/data for the cell syntax: plain floats for point
// values, "x@mass;x@mass;..." for sampled pdfs).
//
// Usage:
//
//	udtree train   -in train.csv -out model.json [-avg] [-measure entropy] [-strategy es] [-max-tuples N]
//	udtree train   -in train.csv -out model.json -forest [-trees 25] [-sample-ratio 1] [-attrs K]
//	udtree train   -in train.csv -out model.json -boost [-rounds 10] [-learning-rate 1]
//	udtree predict -model model.json -in test.csv [-batch 512] [-format human|ndjson] [-early-exit]
//	udtree rules   -model model.json
//	udtree eval    -model model.json -in test.csv [-batch 512]
//	udtree convert -in model.json -out model.udt [-to auto|json|binary]
//
// predict, eval, rules and convert accept single-tree models and the
// versioned ensemble containers written by train -forest (bagged, uniform
// votes) and train -boost (SAMME, weighted votes), in either the JSON
// interchange format or the binary serving container (see internal/binfmt);
// the format is sniffed from the file, never from its name. predict and
// eval stream the input CSV through the compiled engine in fixed-size
// batches, so file size never bounds memory.
// predict -format ndjson emits one JSON object per tuple in exactly the
// format of udtserve's POST /classify/stream responses, so CLI output pipes
// into the same downstream consumers. train -max-tuples N streams the file
// into a seeded uniform reservoir sample of at most N resident tuples.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"udt"
	"udt/internal/binfmt"
	"udt/internal/boost"
	"udt/internal/cliutil"
	"udt/internal/eval"
	"udt/internal/forest"
	"udt/internal/modelio"
	"udt/internal/obs"
	"udt/internal/par"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = train(os.Args[2:])
	case "predict":
		err = predict(os.Args[2:])
	case "rules":
		err = rules(os.Args[2:])
	case "eval":
		err = evalCmd(os.Args[2:])
	case "convert":
		err = convert(os.Args[2:])
	case "cv":
		err = cvCmd(os.Args[2:])
	case "-version", "--version", "version":
		fmt.Println(cliutil.VersionString("udtree"))
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "udtree:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  udtree train   -in train.csv -out model.json [-avg] [-measure entropy|gini|gainratio] [-strategy udt|bp|lp|gp|es] [-maxdepth N] [-minweight W] [-postprune] [-workers N] [-parallel N]
                 [-forest] [-trees 25] [-sample-ratio 1] [-attrs K] [-seed N] [-max-tuples N]
                 [-boost] [-rounds 10] [-learning-rate 1] [-progress]
  udtree predict -model model.json -in test.csv [-batch 512] [-workers N] [-format human|ndjson] [-early-exit]
  udtree rules   -model model.json
  udtree eval    -model model.json -in test.csv [-batch 512] [-workers N]
  udtree convert -in model.json -out model.udt [-to auto|json|binary]
  udtree cv      -in data.csv [-folds 10] [-avg] [-measure ...] [-strategy ...] [-seed N] [-workers N] [-parallel N]
  udtree -version`)
}

func parseMeasure(s string) (udt.Measure, error) {
	switch s {
	case "entropy", "":
		return udt.Entropy, nil
	case "gini":
		return udt.Gini, nil
	case "gainratio":
		return udt.GainRatio, nil
	}
	return 0, fmt.Errorf("unknown measure %q", s)
}

func parseStrategy(s string) (udt.Strategy, error) {
	return cliutil.ParseStrategy(s)
}

func loadCSV(path string) (*udt.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return udt.ReadCSV(f, path)
}

// writeModel marshals any model document (tree or forest) to disk.
func writeModel(path string, model any) error {
	blob, err := json.MarshalIndent(model, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func train(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "", "training CSV")
	out := fs.String("out", "model.json", "output model file")
	avg := fs.Bool("avg", false, "use the Averaging baseline (collapse pdfs to means)")
	measure := fs.String("measure", "entropy", "dispersion measure")
	strategy := fs.String("strategy", "es", "split search strategy")
	maxDepth := fs.Int("maxdepth", 0, "maximum tree depth (0 = unlimited)")
	minWeight := fs.Float64("minweight", 4, "minimum node weight to split")
	postPrune := fs.Bool("postprune", true, "pessimistic post-pruning")
	workers := fs.Int("workers", 1, "intra-node split-search workers (>= 1)")
	parallel := fs.Int("parallel", 1, "concurrent subtree builds (>= 1)")
	forestMode := fs.Bool("forest", false, "train a bagged ensemble instead of a single tree")
	trees := fs.Int("trees", 25, "forest: ensemble size (>= 1)")
	sampleRatio := fs.Float64("sample-ratio", 1, "forest: bootstrap sample size as a fraction of the training set, in (0, 1]")
	attrs := fs.Int("attrs", 0, "forest: random attribute subset size per tree (0 = all)")
	boostMode := fs.Bool("boost", false, "train a boosted weighted ensemble (SAMME) instead of a single tree")
	rounds := fs.Int("rounds", 10, "boost: maximum boosting rounds (>= 1)")
	learningRate := fs.Float64("learning-rate", 1, "boost: shrinkage on the member vote weights (> 0)")
	seed := fs.Int64("seed", 1, "RNG seed for -forest bootstrap/attribute sampling and the -max-tuples reservoir")
	maxTuples := fs.Int("max-tuples", 0, "cap resident training tuples: stream the file and keep a uniform reservoir sample of this size (0 = load everything)")
	progress := fs.Bool("progress", false, "narrate training on stderr (per-member lines, boosting rounds, split-search timing summary)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.RequireString("train: -in", *in); err != nil {
		return err
	}
	if *maxTuples < 0 {
		return fmt.Errorf("train: -max-tuples must be >= 0 (got %d)", *maxTuples)
	}
	if err := cliutil.CheckPositive("train: -workers", *workers); err != nil {
		return err
	}
	if err := cliutil.CheckPositive("train: -parallel", *parallel); err != nil {
		return err
	}
	if *forestMode && *boostMode {
		return fmt.Errorf("train: -forest and -boost are mutually exclusive")
	}
	if *forestMode {
		if err := cliutil.CheckPositive("train: -trees", *trees); err != nil {
			return err
		}
		// Rejected here because the library treats 0 as "use the default";
		// an explicit 0 on the command line is a mistake, not a default.
		if !(*sampleRatio > 0 && *sampleRatio <= 1) {
			return fmt.Errorf("train: -sample-ratio %v out of (0, 1]", *sampleRatio)
		}
		if *avg {
			return fmt.Errorf("train: -forest and -avg are mutually exclusive")
		}
	}
	if *boostMode {
		if err := cliutil.CheckPositive("train: -rounds", *rounds); err != nil {
			return err
		}
		if !(*learningRate > 0) {
			return fmt.Errorf("train: -learning-rate %v must be > 0", *learningRate)
		}
		if *avg {
			return fmt.Errorf("train: -boost and -avg are mutually exclusive")
		}
	}
	var ds *udt.Dataset
	if *maxTuples > 0 {
		// Stream the file through a bounded reservoir instead of
		// materialising it: resident tuples never exceed -max-tuples.
		src, closer, err := openCSVSource(*in)
		if err != nil {
			return err
		}
		ds, err = udt.Reservoir(src, *maxTuples, *seed)
		closer.Close()
		if err != nil {
			return err
		}
	} else {
		var err error
		ds, err = loadCSV(*in)
		if err != nil {
			return err
		}
	}
	m, err := parseMeasure(*measure)
	if err != nil {
		return err
	}
	st, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	cfg := udt.Config{
		Measure:     m,
		Strategy:    st,
		MaxDepth:    *maxDepth,
		MinWeight:   *minWeight,
		PostPrune:   *postPrune,
		Workers:     *workers,
		Parallelism: *parallel,
	}
	// The hook observes training without influencing it, so the trained
	// model is byte-identical with or without -progress.
	var prog *obs.TrainProgress
	if *progress {
		prog = obs.NewTrainProgress(os.Stderr)
		cfg.Progress = prog.Hook()
	}
	summarize := func() {
		if prog != nil {
			prog.Summary(os.Stderr)
		}
	}
	flagSet := func(name string) bool {
		set := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == name {
				set = true
			}
		})
		return set
	}
	if *forestMode {
		// -parallel drives concurrent member builds; members build their own
		// subtrees serially so the goroutine budget stays -parallel × -workers,
		// the same contract as a single-tree build.
		memberCfg := cfg
		memberCfg.Parallelism = 1
		// Bagging prefers unpruned low-bias members, so the single-tree
		// -postprune default of true is flipped off unless the user set the
		// flag explicitly.
		if !flagSet("postprune") {
			memberCfg.PostPrune = false
		}
		f, err := udt.TrainForest(ds, udt.ForestConfig{
			Trees:        *trees,
			SampleRatio:  *sampleRatio,
			AttrsPerTree: *attrs,
			Seed:         *seed,
			Workers:      *parallel,
			TreeConfig:   memberCfg,
		})
		if err != nil {
			return err
		}
		if err := writeModel(*out, f); err != nil {
			return err
		}
		summarize()
		s := f.Stats()
		fmt.Printf("trained forest on %d tuples: %d trees, %d nodes, depth %d, OOB accuracy %.2f%% (Brier %.4f, %d tuples) -> %s\n",
			ds.Len(), f.NumTrees(), s.Nodes, s.Depth,
			f.OOB.Accuracy*100, f.OOB.Brier, f.OOB.Evaluated, *out)
		return nil
	}
	if *boostMode {
		// Boosting needs weak members: an unlimited unpruned tree fits the
		// training set perfectly and stops boosting after one round. The
		// shallow-unpruned policy lives in boost.WeakMemberConfig; explicit
		// -maxdepth/-postprune flags override it.
		memberCfg := boost.WeakMemberConfig(cfg)
		if flagSet("maxdepth") {
			memberCfg.MaxDepth = *maxDepth
		}
		if flagSet("postprune") {
			memberCfg.PostPrune = *postPrune
		}
		f, err := udt.TrainBoosted(ds, udt.BoostConfig{
			Rounds:       *rounds,
			LearningRate: *learningRate,
			Workers:      *workers,
			TreeConfig:   memberCfg,
		})
		if err != nil {
			return err
		}
		if err := writeModel(*out, f); err != nil {
			return err
		}
		summarize()
		s := f.Stats()
		ws := f.Weights()
		fmt.Printf("trained boosted ensemble on %d tuples: %d/%d rounds kept, %d nodes, depth %d, vote weights %.3f..%.3f -> %s\n",
			ds.Len(), f.NumTrees(), *rounds, s.Nodes, s.Depth,
			slices.Min(ws), slices.Max(ws), *out)
		return nil
	}
	var tree *udt.Tree
	if *avg {
		tree, err = udt.BuildAveraging(ds, cfg)
	} else {
		tree, err = udt.Build(ds, cfg)
	}
	if err != nil {
		return err
	}
	if err := writeModel(*out, tree); err != nil {
		return err
	}
	summarize()
	fmt.Printf("trained on %d tuples: %d nodes, %d leaves, depth %d, %d entropy calcs, %d samples indexed -> %s\n",
		ds.Len(), tree.Stats.Nodes, tree.Stats.Leaves, tree.Stats.Depth,
		tree.Stats.Search.EntropyCalcs(), tree.Stats.Search.Indexed, *out)
	return nil
}

// openCSVSource opens a CSV file as a row stream; the caller closes the
// returned closer when done.
func openCSVSource(path string) (*udt.CSVSource, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := udt.NewCSVSource(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, f, nil
}

func predict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "model.json", "model file")
	in := fs.String("in", "", "input CSV (class column may hold placeholders)")
	batch := fs.Int("batch", streamBatch, "tuples resident at a time on the streaming path (>= 1)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent classification workers per batch (>= 1)")
	format := fs.String("format", "human", `output format: "human" (one annotated line per tuple) or "ndjson" (the udtserve /classify/stream protocol)`)
	earlyExit := fs.Bool("early-exit", false, "predict with staged early exit: byte-identical classes, members-evaluated counts instead of distributions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.RequireString("predict: -in", *in); err != nil {
		return err
	}
	if err := cliutil.CheckPositive("predict: -batch", *batch); err != nil {
		return err
	}
	if err := cliutil.CheckPositive("predict: -workers", *workers); err != nil {
		return err
	}
	var newEmit func(io.Writer) emitFunc
	switch *format {
	case "human":
		newEmit = humanEmitter
	case "ndjson":
		newEmit = ndjsonEmitter
	default:
		return fmt.Errorf("predict: unknown -format %q (want human or ndjson)", *format)
	}
	mdl, err := modelio.Load(*model)
	if err != nil {
		return err
	}
	src, closer, err := openCSVSource(*in)
	if err != nil {
		return err
	}
	defer closer.Close()
	if *earlyExit {
		return streamPredictEarlyExit(os.Stdout, mdl, src, *batch, *workers, *format)
	}
	return streamPredict(os.Stdout, mdl, src, *batch, *workers, newEmit)
}

// checkSchema rejects an input stream whose attribute arity differs from
// the model's — the compiled engine indexes tuple attributes by schema
// position, so a mismatch would panic mid-descent instead of erroring.
func checkSchema(mdl *modelio.Model, src udt.RowSource) error {
	_, numAttrs, catAttrs := mdl.Schema()
	if len(src.NumAttrs()) != len(numAttrs) || len(src.CatAttrs()) != len(catAttrs) {
		return fmt.Errorf("%s has %d numeric / %d categorical attributes, model expects %d / %d",
			src.Name(), len(src.NumAttrs()), len(src.CatAttrs()), len(numAttrs), len(catAttrs))
	}
	return nil
}

// streamBatch is the default number of tuples resident at a time on the
// streaming predict/eval paths: enough to fill the compiled engine's
// atomic-cursor worker blocks, small enough that file size never matters.
const streamBatch = 512

// emitFunc renders one classified tuple: its 1-based ordinal, the model's
// class labels and the classification distribution. Emitters are built once
// per output stream (not per tuple) so they can hold per-stream state.
type emitFunc func(n int, classes []string, dist []float64) error

// humanEmitter prints the legacy annotated format, one tuple per line.
func humanEmitter(w io.Writer) emitFunc {
	return func(n int, classes []string, dist []float64) error {
		fmt.Fprintf(w, "tuple %d: %s", n, classes[par.Argmax(dist)])
		for c, p := range dist {
			fmt.Fprintf(w, "  P(%s)=%.4f", classes[c], p)
		}
		_, err := fmt.Fprintln(w)
		return err
	}
}

// ndjsonEmitter prints one modelio.StreamResult document per tuple — the
// exact line udtserve's /classify/stream would answer for the same tuple at
// the same position, so CLI output and server responses interchange
// downstream. One encoder serves the whole stream, as the server does.
func ndjsonEmitter(w io.Writer) emitFunc {
	enc := json.NewEncoder(w)
	return func(n int, classes []string, dist []float64) error {
		return enc.Encode(modelio.NewStreamResult(n, classes, dist))
	}
}

// streamPredict pushes the source through the compiled engine in fixed-size
// batches, printing one line per tuple through a newEmit(w) emitter. Output
// is identical to classifying tuple-by-tuple over a materialised dataset
// (ClassifyBatch is positionally identical to Classify), but only one batch
// is ever resident.
func streamPredict(w io.Writer, mdl *modelio.Model, src udt.RowSource, batch, workers int, newEmit func(io.Writer) emitFunc) error {
	classes, _, _ := mdl.Schema()
	if err := checkSchema(mdl, src); err != nil {
		return err
	}
	emit := newEmit(w)
	n := 0
	err := udt.CollectChunked(src, batch, func(chunk *udt.Dataset) error {
		for _, dist := range mdl.ClassifyBatch(chunk.Tuples, workers) {
			n++
			if err := emit(n, classes, dist); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		// The materialised path rejected header-only files (a dataset with
		// no classes fails validation); an empty stream must not look like a
		// successful run.
		return fmt.Errorf("%s has no data rows", src.Name())
	}
	return nil
}

// streamPredictEarlyExit is streamPredict for -early-exit mode: classes are
// byte-identical to full evaluation, but each tuple reports how many
// ensemble members were evaluated instead of a distribution (early exit
// stops before the full distribution exists). The human format appends a
// mean-members summary line; ndjson emits udtserve's early-exit stream
// protocol with no summary, keeping the two surfaces byte-compatible.
func streamPredictEarlyExit(w io.Writer, mdl *modelio.Model, src udt.RowSource, batch, workers int, format string) error {
	classes, _, _ := mdl.Schema()
	if err := checkSchema(mdl, src); err != nil {
		return err
	}
	var enc *json.Encoder
	if format == "ndjson" {
		enc = json.NewEncoder(w)
	}
	stages := mdl.StageCount()
	n, members := 0, 0
	err := udt.CollectChunked(src, batch, func(chunk *udt.Dataset) error {
		preds, evaluated := mdl.PredictBatchEarlyExit(chunk.Tuples, workers)
		for i, p := range preds {
			n++
			members += evaluated[i]
			if enc != nil {
				if err := enc.Encode(modelio.NewStagedResult(n, classes, p, evaluated[i])); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "tuple %d: %s (%d/%d members)\n", n, classes[p], evaluated[i], stages); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%s has no data rows", src.Name())
	}
	if enc == nil {
		fmt.Fprintf(w, "early exit: mean %.2f of %d members evaluated over %d tuples\n",
			float64(members)/float64(n), stages, n)
	}
	return nil
}

func rules(args []string) error {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	model := fs.String("model", "model.json", "model file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mdl, err := modelio.Load(*model)
	if err != nil {
		return err
	}
	defer mdl.Close()
	if mdl.Kind() != forest.KindTree {
		return fmt.Errorf("rules: %s is a %s; rule extraction needs a single-tree model", *model, mdl.Describe())
	}
	// Binary-loaded trees have no pointer tree resident and decompile one.
	tree, err := mdl.MemberTree(0)
	if err != nil {
		return err
	}
	for _, r := range tree.Rules() {
		fmt.Println(r)
	}
	return nil
}

// convert rewrites a model file between the JSON interchange format and the
// binary serving container. The source format is sniffed from the file; -to
// auto targets the other one. Predictions are byte-identical across the
// round trip in either direction.
func convert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "source model file (JSON or binary, sniffed)")
	out := fs.String("out", "", "destination model file")
	to := fs.String("to", "auto", `target format: "auto" (the opposite of the source), "json" or "binary"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.RequireString("convert: -in", *in); err != nil {
		return err
	}
	if err := cliutil.RequireString("convert: -out", *out); err != nil {
		return err
	}
	mdl, err := modelio.Load(*in)
	if err != nil {
		return err
	}
	defer mdl.Close()
	from := mdl.Format
	target := *to
	if target == "auto" {
		if from == modelio.FormatBinary {
			target = modelio.FormatJSON
		} else {
			target = modelio.FormatBinary
		}
	}
	switch target {
	case modelio.FormatBinary:
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := binfmt.EncodeForest(f, mdl.Forest); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	case modelio.FormatJSON:
		// A tree writes its single-tree document; binary-loaded members
		// decompile.
		if err := writeModel(*out, mdl.Forest); err != nil {
			return err
		}
	default:
		return fmt.Errorf("convert: unknown -to %q (want auto, json or binary)", *to)
	}
	fmt.Printf("converted %s (%s) -> %s (%s): %s\n", *in, from, *out, target, mdl.Describe())
	return nil
}

func evalCmd(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	model := fs.String("model", "model.json", "model file")
	in := fs.String("in", "", "labelled test CSV")
	batch := fs.Int("batch", streamBatch, "tuples resident at a time on the streaming path (>= 1)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent classification workers per batch (>= 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.RequireString("eval: -in", *in); err != nil {
		return err
	}
	if err := cliutil.CheckPositive("eval: -batch", *batch); err != nil {
		return err
	}
	if err := cliutil.CheckPositive("eval: -workers", *workers); err != nil {
		return err
	}
	mdl, err := modelio.Load(*model)
	if err != nil {
		return err
	}
	src, closer, err := openCSVSource(*in)
	if err != nil {
		return err
	}
	defer closer.Close()
	acc, err := streamEval(mdl, src, *batch, *workers)
	if err != nil {
		return err
	}
	classes, _, _ := mdl.Schema()
	fmt.Printf("model: %s\n", mdl.Describe())
	fmt.Printf("accuracy: %.2f%% on %d tuples\n", acc.Accuracy()*100, acc.Total())
	fmt.Printf("%-12s", "true\\pred")
	for _, c := range classes {
		fmt.Printf("%10s", c)
	}
	fmt.Println()
	for i, row := range acc.Confusion() {
		fmt.Printf("%-12s", classes[i])
		for _, v := range row {
			fmt.Printf("%10.1f", v)
		}
		fmt.Println()
	}
	return nil
}

// streamEval folds the labelled stream through the compiled batch engine
// into a running accuracy/confusion accumulator. The stream's class labels
// are remapped onto the model's label order as the vocabulary grows; a label
// the model has never seen fails the run, like the materialised path did.
func streamEval(mdl *modelio.Model, src udt.RowSource, batch, workers int) (*eval.Accumulator, error) {
	classes, _, _ := mdl.Schema()
	if err := checkSchema(mdl, src); err != nil {
		return nil, err
	}
	modelIdx := make(map[string]int, len(classes))
	for i, c := range classes {
		modelIdx[c] = i
	}
	acc := eval.NewAccumulator(classes)
	var remap []int // stream class index -> model class index
	err := udt.CollectChunked(src, batch, func(chunk *udt.Dataset) error {
		for len(remap) < len(chunk.Classes) {
			label := chunk.Classes[len(remap)]
			j, ok := modelIdx[label]
			if !ok {
				return fmt.Errorf("test class %q unknown to the model", label)
			}
			remap = append(remap, j)
		}
		for _, tu := range chunk.Tuples {
			tu.Class = remap[tu.Class]
		}
		acc.Add(chunk.Tuples, mdl.PredictBatch(chunk.Tuples, workers))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if acc.Total() == 0 {
		// Match the materialised path, which failed validation on a
		// header-only file instead of reporting 0% accuracy on 0 tuples.
		return nil, fmt.Errorf("%s has no data rows", src.Name())
	}
	return acc, nil
}

func cvCmd(args []string) error {
	fs := flag.NewFlagSet("cv", flag.ExitOnError)
	in := fs.String("in", "", "labelled CSV")
	folds := fs.Int("folds", 10, "number of folds")
	avg := fs.Bool("avg", false, "evaluate the Averaging baseline as well")
	measure := fs.String("measure", "entropy", "dispersion measure")
	strategy := fs.String("strategy", "es", "split search strategy")
	maxDepth := fs.Int("maxdepth", 0, "maximum tree depth (0 = unlimited)")
	seed := fs.Int64("seed", 1, "fold shuffling seed")
	workers := fs.Int("workers", 1, "intra-node split-search workers (>= 1)")
	parallel := fs.Int("parallel", 1, "concurrent subtree builds (>= 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.RequireString("cv: -in", *in); err != nil {
		return err
	}
	if err := cliutil.CheckPositive("cv: -workers", *workers); err != nil {
		return err
	}
	if err := cliutil.CheckPositive("cv: -parallel", *parallel); err != nil {
		return err
	}
	ds, err := loadCSV(*in)
	if err != nil {
		return err
	}
	m, err := parseMeasure(*measure)
	if err != nil {
		return err
	}
	st, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	cfg := udt.Config{Measure: m, Strategy: st, MaxDepth: *maxDepth, PostPrune: true, Workers: *workers, Parallelism: *parallel}
	res, err := udt.CrossValidate(ds, *folds, udt.TreeTrainer(cfg), rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Printf("UDT %d-fold CV accuracy: %.2f%% (%d entropy calcs, %v build)\n",
		*folds, res.Accuracy*100, res.Search.EntropyCalcs(), res.BuildTime.Round(time.Millisecond))
	if *avg {
		// The same seed deals the same folds; test folds keep their pdfs.
		resAvg, err := udt.CrossValidate(ds, *folds, udt.AveragingTrainer(cfg), rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		fmt.Printf("AVG %d-fold CV accuracy: %.2f%%\n", *folds, resAvg.Accuracy*100)
	}
	// Per-class metrics on the training set for detail.
	model, err := udt.TreeTrainer(cfg)(ds)
	if err != nil {
		return err
	}
	conf, brier, logLoss := udt.Evaluate(model, ds)
	metrics, err := udt.PerClass(ds.Classes, conf)
	if err != nil {
		return err
	}
	fmt.Printf("\nper-class (training set):\n%-12s %9s %9s %9s %9s\n", "class", "precision", "recall", "F1", "support")
	for _, mm := range metrics {
		fmt.Printf("%-12s %9.3f %9.3f %9.3f %9.1f\n", mm.Class, mm.Precision, mm.Recall, mm.F1, mm.Support)
	}
	fmt.Printf("macro F1: %.3f  Brier: %.4f  log-loss: %.4f\n",
		udt.MacroF1(metrics), brier, logLoss)
	return nil
}
