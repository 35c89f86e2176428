package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"

	"udt"
)

// Input sizes. trainTuples and trainSub size a train op at 60-90 ms of
// CPU time on a 2-vCPU VM (up to 1.5x that in wall time under heavy
// steal), 250-400 ops in a 25 s run, and keep the paper's ladder of root
// split-search work, UDT > BP > LP > GP > ES (with 3 clusters per class
// ES did more work than GP at most sizes below 160 tuples). scoreBatch
// makes a ClassifyBatch a few milliseconds, so p99 has tens of samples
// beyond it; a 1024-tuple batch, whose pdfs no longer fit the caches, ran
// a quarter slower per tuple and spread twice as much from run to run.
const (
	trainTuples  = 76   // Segment-shaped, w = 10%, s = 100
	trainW       = 0.10 // the paper's default width
	trainS       = 100  // the paper's default sample count
	trainSub     = 2    // clusters per class in the train data
	forestSub    = 12   // clusters per class behind the forest, score and serve data
	forestTuples = 840  // the scored and served forest's training set
	forestS      = 20
	forestTrees  = 10
	forestSeed   = 1 // fixed, so bootstrap draws repeat at every run seed
	scoreBatch   = 256
	scoreW       = 0.30 // wide pdfs: fractional descent visits many leaves
	scoreS       = 100
	serveBodies  = 64
	serveW       = 0.10
	serveS       = 20 // ~15 KB per single-tuple body
)

// Input files, relative to the run's work directory.
const (
	fileTrainCSV   = "train.csv"
	fileScoreCSV   = "score.csv"
	fileForestJSON = "forest.json"
	fileForestBin  = "forest.udt"
	fileBodies     = "bodies.ndjson"
)

// stream derives an independent generator per input from the run seed.
func stream(seed int64, input int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + input))
}

// forestConfig is the scored and served model's training recipe.
func forestConfig() udt.ForestConfig {
	return udt.ForestConfig{
		Trees:      forestTrees,
		Seed:       forestSeed,
		Workers:    2,
		TreeConfig: udt.Config{Strategy: udt.StrategyES},
	}
}

// prepare writes every input the given workloads need into work, records
// the sha256 of each (and of the prepared model) in rep, and returns
// before any workload's clock starts.
func prepare(ctx context.Context, work, bin string, seed int64, workloads []string, rep *report) error {
	need := map[string]bool{}
	for _, w := range workloads {
		switch w {
		case "train":
			need[fileTrainCSV] = true
		case "score":
			need[fileScoreCSV], need[fileForestJSON] = true, true
		case "serve":
			need[fileForestJSON], need[fileForestBin], need[fileBodies] = true, true, true
		}
	}
	sh, fsh := segmentShape(trainSub), segmentShape(forestSub)
	write := func(name string, b []byte) error {
		sum := sha256.Sum256(b)
		rep.Digests[name] = hex.EncodeToString(sum[:])
		return os.WriteFile(filepath.Join(work, name), b, 0o644)
	}
	if need[fileTrainCSV] {
		u := sh.uncertain(trainTuples, trainW, trainS, stream(seed, 1))
		if err := write(fileTrainCSV, u.csv()); err != nil {
			return err
		}
	}
	if need[fileScoreCSV] {
		u := fsh.uncertain(scoreBatch, scoreW, scoreS, stream(seed, 3))
		if err := write(fileScoreCSV, u.csv()); err != nil {
			return err
		}
	}
	if need[fileForestJSON] {
		u := fsh.uncertain(forestTuples, trainW, forestS, stream(seed, 2))
		ds, err := udt.ReadCSV(bytes.NewReader(u.csv()), "forest")
		if err != nil {
			return fmt.Errorf("forest training set: %w", err)
		}
		f, err := udt.TrainForest(ds, forestConfig())
		if err != nil {
			return fmt.Errorf("train forest: %w", err)
		}
		b, err := json.Marshal(f)
		if err != nil {
			return fmt.Errorf("encode forest: %w", err)
		}
		if err := write(fileForestJSON, b); err != nil {
			return err
		}
	}
	if need[fileForestBin] {
		// The binary container comes from the CLI, the surface operators use.
		out := filepath.Join(work, fileForestBin)
		cmd := exec.CommandContext(ctx, filepath.Join(bin, "udtree"), "convert",
			"-in", filepath.Join(work, fileForestJSON), "-out", out, "-to", "binary")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("udtree convert: %w", err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		rep.Digests[fileForestBin] = hex.EncodeToString(sum[:])
	}
	if need[fileBodies] {
		// A seeded draw the size of the forest's training set, from which
		// each body takes the first tuple of one cluster, the clusters
		// spread evenly over every class. Which quantile of its cluster a
		// tuple holds on each attribute is drawn from the seed, so every
		// body's values move with it.
		u := fsh.uncertain(forestTuples, serveW, serveS, stream(seed, 4))
		clusters := numClasses * forestSub
		var b []byte
		for k := 0; k < serveBodies; k++ {
			c := k * clusters / serveBodies
			b = append(b, u.body(numClasses*(c%forestSub)+c/forestSub)...)
			b = append(b, '\n')
		}
		if err := write(fileBodies, b); err != nil {
			return err
		}
	}
	return nil
}
