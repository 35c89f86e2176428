package udt_test

// The cross-cutting determinism matrix: every trainable model kind — single
// tree, bagged forest, boosted ensemble — must serialise byte-identically
// across worker counts and across re-runs with the same seed. This is the
// repo's reproducibility contract in one table: parallelism knobs
// (Config.Workers, Config.Parallelism, ForestConfig.Workers,
// BoostConfig.Workers) change wall-clock time only, never a bit of the
// model. CI runs the whole suite (this test included) under -race, so a
// scheduling-dependent divergence shows up either as a byte diff here or as
// a data race there.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"udt"
	"udt/internal/binfmt"
	"udt/internal/forest"
	"udt/internal/modelio"
)

// determinismDataset builds a mid-sized two-attribute, three-class dataset
// with enough tuples that parallel paths actually engage (batch grains,
// member builds) and enough overlap that trees go several levels deep.
func determinismDataset(t testing.TB) *udt.Dataset {
	t.Helper()
	ds := udt.NewDataset("det", 2, []string{"a", "b", "c"})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 210; i++ {
		c := i % 3
		base := float64(c * 4)
		p1, err := udt.UniformPDF(base+rng.Float64()*3, base+3+rng.Float64()*3, 9)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := udt.GaussianPDF(base+rng.Float64()*2, 1.2, base-4, base+6, 9)
		if err != nil {
			t.Fatal(err)
		}
		ds.Add(c, p1, p2)
	}
	return ds
}

// TestModelDeterminismMatrix trains each model kind at Workers ∈
// {1, 4, GOMAXPROCS} plus a same-seed re-run of the first cell, and demands
// byte-identical serialised models everywhere.
func TestModelDeterminismMatrix(t *testing.T) {
	ds := determinismDataset(t)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	for _, kind := range determinismKinds(ds) {
		t.Run(kind.name, func(t *testing.T) {
			serialize := func(workers int) string {
				m, err := kind.train(workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				blob, err := json.Marshal(m)
				if err != nil {
					t.Fatalf("workers=%d: marshal: %v", workers, err)
				}
				return string(blob)
			}
			want := serialize(workerCounts[0])
			for _, workers := range workerCounts[1:] {
				if got := serialize(workers); got != want {
					t.Fatalf("workers=%d serialises differently from workers=%d", workers, workerCounts[0])
				}
			}
			// Same-seed re-run: training must be a pure function of
			// (dataset, config), with no hidden global state.
			if rerun := serialize(workerCounts[0]); rerun != want {
				t.Fatal("same-seed re-run serialises differently")
			}
		})
	}
}

// determinismKinds is the tree/bagged/boosted training table shared by the
// JSON and binary determinism matrices.
func determinismKinds(ds *udt.Dataset) []struct {
	name  string
	train func(workers int) (any, error)
} {
	return []struct {
		name  string
		train func(workers int) (any, error)
	}{
		{
			name: "single tree",
			train: func(workers int) (any, error) {
				return udt.Build(ds, udt.Config{
					MinWeight:   2,
					PostPrune:   true,
					Workers:     workers,
					Parallelism: workers,
				})
			},
		},
		{
			name: "bagged forest",
			train: func(workers int) (any, error) {
				return udt.TrainForest(ds, udt.ForestConfig{
					Trees:        7,
					Seed:         5,
					Workers:      workers,
					AttrsPerTree: 1,
					TreeConfig:   udt.Config{MinWeight: 2, Workers: workers},
				})
			},
		},
		{
			name: "boosted ensemble",
			train: func(workers int) (any, error) {
				return udt.TrainBoosted(ds, udt.BoostConfig{
					Rounds:     6,
					Workers:    workers,
					TreeConfig: udt.Config{MaxDepth: 3, MinWeight: 2, Workers: workers},
				})
			},
		},
	}
}

// encodeBinaryModel renders any trained model kind to its binary container
// bytes.
func encodeBinaryModel(t *testing.T, m any) []byte {
	t.Helper()
	if tree, ok := m.(*udt.Tree); ok {
		var err error
		if m, err = forest.FromTree(tree); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := binfmt.EncodeForest(&buf, m.(*udt.Forest)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryContainerDeterminismMatrix is the binary-format row of the
// determinism contract: the container bytes — section placement, hash-consed
// arena, dist payloads, everything — are a pure function of the model, so
// training at any worker count and re-running with the same seed must emit
// byte-identical files. This is what makes binary models diffable and
// content-addressable in deploy pipelines.
func TestBinaryContainerDeterminismMatrix(t *testing.T) {
	ds := determinismDataset(t)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	for _, kind := range determinismKinds(ds) {
		t.Run(kind.name, func(t *testing.T) {
			encode := func(workers int) []byte {
				m, err := kind.train(workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return encodeBinaryModel(t, m)
			}
			want := encode(workerCounts[0])
			for _, workers := range workerCounts[1:] {
				if !bytes.Equal(encode(workers), want) {
					t.Fatalf("workers=%d container bytes differ from workers=%d", workers, workerCounts[0])
				}
			}
			if !bytes.Equal(encode(workerCounts[0]), want) {
				t.Fatal("same-seed re-run emits different container bytes")
			}
		})
	}
}

// TestBinaryRoundTripPredictionParity chains every model kind through
// JSON → binary → JSON and demands byte-identical probability distributions
// at every hop. Binary is a serving format, not a lossy cache: a model
// converted for mmap serving and converted back must answer exactly like the
// original, including on tuples with missing values.
func TestBinaryRoundTripPredictionParity(t *testing.T) {
	ds := determinismDataset(t)
	probes := append([]*udt.Tuple(nil), ds.Tuples[:80]...)
	// A probe with every attribute missing exercises the widest descent.
	probes = append(probes, &udt.Tuple{Num: make([]*udt.PDF, 2)})

	for _, kind := range determinismKinds(ds) {
		t.Run(kind.name, func(t *testing.T) {
			m, err := kind.train(1)
			if err != nil {
				t.Fatal(err)
			}
			jsonBlob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			fromJSON, err := modelio.Decode(jsonBlob)
			if err != nil {
				t.Fatal(err)
			}
			var bin bytes.Buffer
			if err := binfmt.EncodeForest(&bin, fromJSON.Forest); err != nil {
				t.Fatal(err)
			}
			fromBinary, err := modelio.Decode(bin.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			// Back to JSON: a tree decompiles to its source form, ensembles
			// marshal directly; either way the result must still decode.
			jsonAgain, err := json.Marshal(fromBinary.Forest)
			if err != nil {
				t.Fatal(err)
			}
			backToJSON, err := modelio.Decode(jsonAgain)
			if err != nil {
				t.Fatal(err)
			}

			for i, tu := range probes {
				want := fromJSON.Classify(tu)
				for hop, mdl := range map[string]*modelio.Model{
					"binary":     fromBinary,
					"json-again": backToJSON,
				} {
					got := mdl.Classify(tu)
					if len(got) != len(want) {
						t.Fatalf("probe %d: %s returned %d masses, want %d", i, hop, len(got), len(want))
					}
					for c := range want {
						if got[c] != want[c] {
							t.Fatalf("probe %d class %d: %s mass %v, original %v", i, c, hop, got[c], want[c])
						}
					}
				}
			}
		})
	}
}

// TestStagedPrefixMatrix is the staged-inference row of the determinism
// contract: for every stage k, ClassifyStaged over the first k members in
// evaluation order must be byte-identical (distribution and argmax) to full
// evaluation of a standalone ensemble built from exactly those members.
// Boosted members carry no per-member attribute projections, so the prefix
// sub-ensemble is reconstructible with forest.FromTrees and the comparison
// is exact equality, not tolerance.
func TestStagedPrefixMatrix(t *testing.T) {
	ds := determinismDataset(t)
	boosted, err := udt.TrainBoosted(ds, udt.BoostConfig{
		Rounds:     6,
		Workers:    1,
		TreeConfig: udt.Config{MaxDepth: 3, MinWeight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	order := boosted.EvalOrder()
	members := boosted.Members()
	probes := ds.Tuples[:60]
	for k := 1; k <= boosted.StageCount(); k++ {
		prefix := make([]forest.WeightedTree, k)
		for i, m := range order[:k] {
			prefix[i] = members[m]
		}
		sub, err := forest.FromTrees(prefix, forest.KindBoosted)
		if err != nil {
			t.Fatalf("stage %d: %v", k, err)
		}
		for i, tu := range probes {
			staged, err := boosted.ClassifyStaged(tu, k)
			if err != nil {
				t.Fatalf("stage %d probe %d: %v", k, i, err)
			}
			full := sub.Classify(tu)
			for c := range staged {
				if staged[c] != full[c] {
					t.Fatalf("stage %d probe %d class %d: staged %v, sub-ensemble %v",
						k, i, c, staged[c], full[c])
				}
			}
			ps, err := boosted.PredictStaged(tu, k)
			if err != nil {
				t.Fatalf("stage %d probe %d: %v", k, i, err)
			}
			if pf := sub.Predict(tu); ps != pf {
				t.Fatalf("stage %d probe %d: staged argmax %d, sub-ensemble %d", k, i, ps, pf)
			}
		}
	}
}

// TestEarlyExitDeterminismMatrix is the early-exit row: predictions and
// members-evaluated counts must be byte-identical across worker counts and
// re-runs, and predictions must equal full evaluation — for every model
// kind, a single tree (one member, so always exactly one evaluated)
// included. CI runs this under -race, so a scheduling-dependent divergence
// shows up either here or as a race report.
func TestEarlyExitDeterminismMatrix(t *testing.T) {
	ds := determinismDataset(t)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	kinds := []struct {
		name  string
		train func() (*udt.Forest, error)
	}{
		{
			name: "single tree",
			train: func() (*udt.Forest, error) {
				return udt.TreeTrainer(udt.Config{MinWeight: 2, PostPrune: true})(ds)
			},
		},
		{
			name: "bagged forest",
			train: func() (*udt.Forest, error) {
				return udt.TrainForest(ds, udt.ForestConfig{
					Trees:        7,
					Seed:         5,
					Workers:      1,
					AttrsPerTree: 1,
					TreeConfig:   udt.Config{MinWeight: 2},
				})
			},
		},
		{
			name: "boosted ensemble",
			train: func() (*udt.Forest, error) {
				return udt.TrainBoosted(ds, udt.BoostConfig{
					Rounds:     6,
					Workers:    1,
					TreeConfig: udt.Config{MaxDepth: 3, MinWeight: 2},
				})
			},
		},
	}

	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			f, err := kind.train()
			if err != nil {
				t.Fatal(err)
			}
			tuples := ds.Tuples
			fullPreds := f.PredictBatch(tuples, 1)
			var wantPreds, wantEval []int
			for _, workers := range workerCounts {
				preds, evaluated := f.PredictBatchEarlyExit(tuples, workers)
				for i := range tuples {
					if preds[i] != fullPreds[i] {
						t.Fatalf("workers=%d tuple %d: early exit %d, full evaluation %d",
							workers, i, preds[i], fullPreds[i])
					}
					if evaluated[i] < 1 || evaluated[i] > f.StageCount() {
						t.Fatalf("workers=%d tuple %d: evaluated %d of %d members",
							workers, i, evaluated[i], f.StageCount())
					}
				}
				if wantPreds == nil {
					wantPreds, wantEval = preds, evaluated
					continue
				}
				for i := range tuples {
					if preds[i] != wantPreds[i] || evaluated[i] != wantEval[i] {
						t.Fatalf("workers=%d tuple %d: (%d, %d) diverges from workers=%d (%d, %d)",
							workers, i, preds[i], evaluated[i], workerCounts[0], wantPreds[i], wantEval[i])
					}
				}
			}
			// Same-model re-run: early exit is a pure function of the model
			// and tuple, with no hidden state in the scratch pool.
			rerunPreds, rerunEval := f.PredictBatchEarlyExit(tuples, workerCounts[0])
			for i := range tuples {
				if rerunPreds[i] != wantPreds[i] || rerunEval[i] != wantEval[i] {
					t.Fatalf("re-run tuple %d: (%d, %d) diverges from (%d, %d)",
						i, rerunPreds[i], rerunEval[i], wantPreds[i], wantEval[i])
				}
			}
		})
	}
}
