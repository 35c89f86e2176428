package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"udt"
	"udt/internal/eval"
	"udt/internal/modelio"
	"udt/internal/par"
)

const trainCSV = `x,y,class
0.1,1;2;3,lo
0.2,2;3;4,lo
0.3,1;3;5,lo
0.4,2;2;3,lo
9.1,11;12;13,hi
9.2,12;13;14,hi
9.3,11;13;15,hi
9.4,12;12;13,hi
`

const testCSV = `x,y,class
0.15,1;2;4,lo
9.15,11;12;14,hi
`

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 64<<10)
	n, _ := r.Read(buf)
	return string(buf[:n]), runErr
}

func writeFixtures(t *testing.T) (trainPath, testPath, modelPath string) {
	t.Helper()
	dir := t.TempDir()
	trainPath = filepath.Join(dir, "train.csv")
	testPath = filepath.Join(dir, "test.csv")
	modelPath = filepath.Join(dir, "model.json")
	if err := os.WriteFile(trainPath, []byte(trainCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(testPath, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return trainPath, testPath, modelPath
}

func TestTrainPredictEvalRoundTrip(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)

	out, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1", "-strategy", "gp"})
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if !strings.Contains(out, "trained on 8 tuples") {
		t.Fatalf("train output: %q", out)
	}
	// GP indexes the root's 30 pdf samples (8 of x; 22 of y, where "2;2;3"
	// and "12;12;13" merge a repeat) once, and no interval survives its
	// phase-2 pruning to be indexed again; both children are pure and
	// never searched.
	if !strings.Contains(out, " entropy calcs, 30 samples indexed -> ") {
		t.Fatalf("train output lacks the index work: %q", out)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model not written: %v", err)
	}

	out, err = capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath})
	})
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if !strings.Contains(out, "tuple 1: lo") || !strings.Contains(out, "tuple 2: hi") {
		t.Fatalf("predict output: %q", out)
	}

	out, err = capture(t, func() error {
		return rules([]string{"-model", modelPath})
	})
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	if !strings.Contains(out, "IF ") || !strings.Contains(out, "THEN") {
		t.Fatalf("rules output: %q", out)
	}

	out, err = capture(t, func() error {
		return evalCmd([]string{"-model", modelPath, "-in", testPath})
	})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !strings.Contains(out, "accuracy: 100.00%") {
		t.Fatalf("eval output: %q", out)
	}
}

// materialisedPredictOutput renders what the pre-streaming predict path
// printed: every tuple classified one by one over a fully loaded dataset.
func materialisedPredictOutput(t *testing.T, modelPath, csvPath string) string {
	t.Helper()
	mdl, err := modelio.Load(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := udt.ReadCSV(f, csvPath)
	if err != nil {
		t.Fatal(err)
	}
	classes, _, _ := mdl.Schema()
	var b bytes.Buffer
	for i, tu := range ds.Tuples {
		dist := mdl.Classify(tu)
		fmt.Fprintf(&b, "tuple %d: %s", i+1, classes[par.Argmax(dist)])
		for c, p := range dist {
			fmt.Fprintf(&b, "  P(%s)=%.4f", classes[c], p)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// TestStreamPredictByteIdentical: the streaming predict path must produce
// byte-identical output to the pre-refactor materialised path, at batch
// sizes that exercise mid-batch, exact-batch and whole-file windows — the
// acceptance oracle of the streaming refactor.
func TestStreamPredictByteIdentical(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	// Predict over the training file itself: 8 tuples, both classes.
	want := materialisedPredictOutput(t, modelPath, trainPath)
	for _, batch := range []string{"1", "3", "8", "512"} {
		got, err := capture(t, func() error {
			return predict([]string{"-model", modelPath, "-in", trainPath, "-batch", batch})
		})
		if err != nil {
			t.Fatalf("batch %s: %v", batch, err)
		}
		if got != want {
			t.Fatalf("batch %s: streaming output differs from materialised path\n got: %q\nwant: %q", batch, got, want)
		}
	}
}

// TestEvalStreamsInBatches: eval must agree across batch sizes, including
// batches smaller than the class count's first appearance window.
func TestEvalStreamsInBatches(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	var outputs []string
	for _, batch := range []string{"1", "2", "512"} {
		out, err := capture(t, func() error {
			return evalCmd([]string{"-model", modelPath, "-in", testPath, "-batch", batch})
		})
		if err != nil {
			t.Fatalf("batch %s: %v", batch, err)
		}
		outputs = append(outputs, out)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("eval output differs across batch sizes:\n%q\nvs\n%q", outputs[0], outputs[i])
		}
	}
	if !strings.Contains(outputs[0], "accuracy: 100.00% on 2 tuples") {
		t.Fatalf("eval output: %q", outputs[0])
	}
}

// TestTrainMaxTuples: -max-tuples streams the file through a reservoir; the
// same seed must train the identical model, and the tuple count must be
// capped.
func TestTrainMaxTuples(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	otherPath := filepath.Join(filepath.Dir(modelPath), "other.json")
	for _, path := range []string{modelPath, otherPath} {
		out, err := capture(t, func() error {
			return train([]string{"-in", trainPath, "-out", path, "-minweight", "1", "-max-tuples", "6", "-seed", "9"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "trained on 6 tuples") {
			t.Fatalf("train -max-tuples output: %q", out)
		}
	}
	a, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("-max-tuples with a fixed seed trained different models")
	}
	// A cap at least as large as the file loads everything.
	out, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1", "-max-tuples", "100"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trained on 8 tuples") {
		t.Fatalf("oversized -max-tuples output: %q", out)
	}
	if err := train([]string{"-in", trainPath, "-out", modelPath, "-max-tuples", "-1"}); err == nil {
		t.Error("negative -max-tuples accepted")
	}
}

// TestPredictEvalHeaderOnly: a header-only CSV must fail predict and eval
// (the materialised path rejected it as a dataset with no classes; the
// streaming path must not turn it into a silent empty success).
func TestPredictEvalHeaderOnly(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	emptyPath := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(emptyPath, []byte("x,y,class\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := predict([]string{"-model", modelPath, "-in", emptyPath}); err == nil || !strings.Contains(err.Error(), "no data rows") {
		t.Errorf("predict on header-only file: %v", err)
	}
	if err := evalCmd([]string{"-model", modelPath, "-in", emptyPath}); err == nil || !strings.Contains(err.Error(), "no data rows") {
		t.Errorf("eval on header-only file: %v", err)
	}
}

// TestPredictEvalSchemaMismatch: an input CSV whose attribute count differs
// from the model's must fail with a clean error, not an index panic inside
// the compiled descent.
func TestPredictEvalSchemaMismatch(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	narrowPath := filepath.Join(t.TempDir(), "narrow.csv")
	if err := os.WriteFile(narrowPath, []byte("x,class\n0.1,lo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := predict([]string{"-model", modelPath, "-in", narrowPath}); err == nil || !strings.Contains(err.Error(), "model expects") {
		t.Errorf("predict with 1 of 2 attributes: %v", err)
	}
	if err := evalCmd([]string{"-model", modelPath, "-in", narrowPath}); err == nil || !strings.Contains(err.Error(), "model expects") {
		t.Errorf("eval with 1 of 2 attributes: %v", err)
	}
}

// TestPredictEvalBatchValidation: non-positive -batch knobs must fail.
func TestPredictEvalBatchValidation(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	if err := predict([]string{"-model", modelPath, "-in", testPath, "-batch", "0"}); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Errorf("predict -batch 0: %v", err)
	}
	if err := evalCmd([]string{"-model", modelPath, "-in", testPath, "-workers", "0"}); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Errorf("eval -workers 0: %v", err)
	}
}

// TestTrainForestRoundTrip: train -forest writes a forest container that
// predict and eval both load transparently, while rules rejects it.
func TestTrainForestRoundTrip(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)

	out, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-forest", "-trees", "7", "-minweight", "1", "-seed", "3"})
	})
	if err != nil {
		t.Fatalf("train -forest: %v", err)
	}
	if !strings.Contains(out, "7 trees") || !strings.Contains(out, "OOB accuracy") {
		t.Fatalf("train -forest output: %q", out)
	}

	out, err = capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath})
	})
	if err != nil {
		t.Fatalf("predict on forest: %v", err)
	}
	if !strings.Contains(out, "tuple 1: lo") || !strings.Contains(out, "tuple 2: hi") {
		t.Fatalf("forest predict output: %q", out)
	}

	out, err = capture(t, func() error {
		return evalCmd([]string{"-model", modelPath, "-in", testPath})
	})
	if err != nil {
		t.Fatalf("eval on forest: %v", err)
	}
	if !strings.Contains(out, "forest (7 trees") || !strings.Contains(out, "accuracy: 100.00%") {
		t.Fatalf("forest eval output: %q", out)
	}

	if err := rules([]string{"-model", modelPath}); err == nil || !strings.Contains(err.Error(), "single-tree model") {
		t.Fatalf("rules on forest: %v", err)
	}
}

// TestTrainForestDeterministicAcrossParallel: -parallel drives the forest's
// member-build workers and must not change the written container.
func TestTrainForestDeterministicAcrossParallel(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	serialPath := filepath.Join(filepath.Dir(modelPath), "serial-forest.json")
	for path, parallel := range map[string]string{serialPath: "1", modelPath: "4"} {
		if _, err := capture(t, func() error {
			return train([]string{"-in", trainPath, "-out", path, "-forest", "-trees", "5", "-minweight", "1", "-parallel", parallel})
		}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("-parallel changed the trained forest")
	}
}

// TestTrainForestErrors: forest knob validation.
func TestTrainForestErrors(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	for name, args := range map[string][]string{
		"zero trees":        {"-in", trainPath, "-out", modelPath, "-forest", "-trees", "0"},
		"bad sample ratio":  {"-in", trainPath, "-out", modelPath, "-forest", "-sample-ratio", "2"},
		"zero sample ratio": {"-in", trainPath, "-out", modelPath, "-forest", "-sample-ratio", "0"},
		"NaN sample ratio":  {"-in", trainPath, "-out", modelPath, "-forest", "-sample-ratio", "NaN"},
		"bad attrs":         {"-in", trainPath, "-out", modelPath, "-forest", "-attrs", "99"},
		"forest with avg":   {"-in", trainPath, "-out", modelPath, "-forest", "-avg"},
	} {
		if err := train(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTrainAveragingFlag(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-avg", "-minweight", "1"})
	}); err != nil {
		t.Fatalf("train -avg: %v", err)
	}
}

func TestTrainMeasures(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	for _, m := range []string{"entropy", "gini", "gainratio"} {
		if _, err := capture(t, func() error {
			return train([]string{"-in", trainPath, "-out", modelPath, "-measure", m, "-minweight", "1"})
		}); err != nil {
			t.Fatalf("measure %s: %v", m, err)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if err := train([]string{}); err == nil {
		t.Error("missing -in not caught")
	}
	if err := train([]string{"-in", "/nonexistent.csv"}); err == nil {
		t.Error("missing file not caught")
	}
	trainPath, _, modelPath := writeFixtures(t)
	if err := train([]string{"-in", trainPath, "-out", modelPath, "-measure", "bogus"}); err == nil {
		t.Error("bad measure not caught")
	}
	if err := train([]string{"-in", trainPath, "-out", modelPath, "-strategy", "bogus"}); err == nil {
		t.Error("bad strategy not caught")
	}
}

func TestPredictErrors(t *testing.T) {
	if err := predict([]string{}); err == nil {
		t.Error("missing -in not caught")
	}
	if err := predict([]string{"-in", "x.csv", "-model", "/nonexistent.json"}); err == nil {
		t.Error("missing model not caught")
	}
}

func TestEvalUnknownClass(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	badPath := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(badPath, []byte("x,y,class\n1,2,mystery\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := evalCmd([]string{"-model", modelPath, "-in", badPath}); err == nil {
		t.Error("unknown test class not caught")
	}
}

func TestCVSubcommand(t *testing.T) {
	trainPath, _, _ := writeFixtures(t)
	out, err := capture(t, func() error {
		return cvCmd([]string{"-in", trainPath, "-folds", "2", "-avg"})
	})
	if err != nil {
		t.Fatalf("cv: %v", err)
	}
	for _, want := range []string{"UDT 2-fold CV accuracy", "AVG 2-fold CV accuracy", "macro F1", "precision"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cv output missing %q:\n%s", want, out)
		}
	}
}

// TestCVAveragingKeepsTestPdfs: cv -avg runs the library's AVG protocol on
// the folds the UDT line used: training folds collapse to their means, test
// folds keep their pdfs. Class lo puts 0.55 of its mass at 9 but has its
// mean below every hi mean, so an AVG tree scores lo tuples correctly only
// when they too are collapsed to their means.
func TestCVAveragingKeepsTestPdfs(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("x,class\n")
	for i := 0; i < 10; i++ {
		j := float64(i) / 100
		fmt.Fprintf(&csv, "%g@0.45;%g@0.55,lo\n", j, 9+j)
		fmt.Fprintf(&csv, "%g;%g,hi\n", 5.5+j, 6.5+j)
	}
	path := filepath.Join(t.TempDir(), "aliased.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return cvCmd([]string{"-in", path, "-folds", "5", "-avg", "-seed", "3"})
	})
	if err != nil {
		t.Fatalf("cv: %v", err)
	}

	ds, err := loadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := udt.Config{Strategy: udt.StrategyES, PostPrune: true, Workers: 1, Parallelism: 1}
	want, err := eval.CrossValidate(ds, 5, eval.Averaging(cfg), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	collapsed, err := eval.CrossValidate(ds.Means(), 5, eval.Tree(cfg), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("AVG 5-fold CV accuracy: %.2f%%\n", want.Accuracy*100)
	if line == fmt.Sprintf("AVG 5-fold CV accuracy: %.2f%%\n", collapsed.Accuracy*100) {
		t.Fatalf("fixture does not tell the protocols apart: both print %q", line)
	}
	if !strings.Contains(out, line) {
		t.Fatalf("cv output lacks the library's AVG line %q:\n%s", line, out)
	}
}

func TestCVErrors(t *testing.T) {
	if err := cvCmd([]string{}); err == nil {
		t.Error("missing -in not caught")
	}
	trainPath, _, _ := writeFixtures(t)
	if err := cvCmd([]string{"-in", trainPath, "-measure", "bogus"}); err == nil {
		t.Error("bad measure not caught")
	}
	if err := cvCmd([]string{"-in", trainPath, "-strategy", "bogus"}); err == nil {
		t.Error("bad strategy not caught")
	}
	if err := cvCmd([]string{"-in", trainPath, "-folds", "99"}); err == nil {
		t.Error("too many folds not caught")
	}
}

func TestParseHelpers(t *testing.T) {
	if m, err := parseMeasure(""); err != nil || m != 0 {
		t.Error("empty measure should default to entropy")
	}
	if s, err := parseStrategy(""); err != nil || s != 0 {
		t.Error("empty strategy should default to udt")
	}
	if _, err := parseMeasure("nope"); err == nil {
		t.Error("bad measure accepted")
	}
	if _, err := parseStrategy("nope"); err == nil {
		t.Error("bad strategy accepted")
	}
}

// TestParallelismFlagValidation: non-positive -workers/-parallel must fail
// with a clear error instead of silently running the serial zero-value path.
func TestParallelismFlagValidation(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	for _, args := range [][]string{
		{"-in", trainPath, "-out", modelPath, "-workers", "0"},
		{"-in", trainPath, "-out", modelPath, "-workers", "-3"},
		{"-in", trainPath, "-out", modelPath, "-parallel", "0"},
	} {
		err := train(args)
		if err == nil {
			t.Errorf("train %v: non-positive knob not caught", args)
		} else if !strings.Contains(err.Error(), "must be >= 1") {
			t.Errorf("train %v: unclear error %q", args, err)
		}
	}
	if err := cvCmd([]string{"-in", trainPath, "-folds", "2", "-workers", "0"}); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Errorf("cv -workers 0: got %v", err)
	}
	if err := cvCmd([]string{"-in", trainPath, "-folds", "2", "-parallel", "-1"}); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Errorf("cv -parallel -1: got %v", err)
	}
}

// TestTrainWithWorkers: the parallel knobs must produce the same model as a
// serial run.
func TestTrainWithWorkers(t *testing.T) {
	trainPath, _, modelPath := writeFixtures(t)
	dir := filepath.Dir(modelPath)
	serialPath := filepath.Join(dir, "serial.json")
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", serialPath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-minweight", "1", "-workers", "4", "-parallel", "2"})
	}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("parallel training produced a different model than serial")
	}
}
