package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"udt/internal/split"
)

// TestParallelBuildMatchesSerial: concurrent subtree construction must
// produce a tree that classifies identically to the serial build and must
// account for exactly the same amount of split-search work.
func TestParallelBuildMatchesSerial(t *testing.T) {
	ds := buildRandomDataset(rand.New(rand.NewSource(41)), 120, 3, 4, 10)
	serial, err := Build(ds, Config{Strategy: split.GP, MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(ds, Config{Strategy: split.GP, MinWeight: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Stats.Nodes != serial.Stats.Nodes || parallel.Stats.Leaves != serial.Stats.Leaves {
		t.Fatalf("tree shape differs: %d/%d nodes, %d/%d leaves",
			parallel.Stats.Nodes, serial.Stats.Nodes, parallel.Stats.Leaves, serial.Stats.Leaves)
	}
	if parallel.Stats.Search.EntropyCalcs() != serial.Stats.Search.EntropyCalcs() {
		t.Fatalf("work accounting differs: %d vs %d entropy calcs",
			parallel.Stats.Search.EntropyCalcs(), serial.Stats.Search.EntropyCalcs())
	}
	for _, tu := range ds.Tuples {
		a, b := serial.Classify(tu), parallel.Classify(tu)
		for c := range a {
			if math.Abs(a[c]-b[c]) > 1e-12 {
				t.Fatalf("parallel tree classifies differently: %v vs %v", b, a)
			}
		}
	}
}

// TestParallelBuildRace exercises the concurrent path under the race
// detector (go test -race) with enough tuples to spawn real goroutines.
func TestParallelBuildRace(t *testing.T) {
	ds := buildRandomDataset(rand.New(rand.NewSource(42)), 200, 4, 5, 8)
	for trial := 0; trial < 3; trial++ {
		tr, err := Build(ds, Config{Strategy: split.ES, MinWeight: 1, Parallelism: 8, PostPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Stats.Nodes == 0 {
			t.Fatal("empty tree")
		}
	}
}

// TestWorkersBuildMatchesSerial: intra-node parallel split search must
// produce the identical tree (structure, split points, classifications) as
// the serial search for every strategy — the node-level determinism
// guarantee lifted to whole builds.
func TestWorkersBuildMatchesSerial(t *testing.T) {
	ds := buildRandomDataset(rand.New(rand.NewSource(44)), 300, 3, 4, 10)
	for _, strat := range []split.Strategy{split.UDT, split.BP, split.LP, split.GP, split.ES} {
		serial, err := Build(ds, Config{Strategy: strat, MinWeight: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Build(ds, Config{Strategy: strat, MinWeight: 1, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if parallel.Stats.Nodes != serial.Stats.Nodes || parallel.Stats.Leaves != serial.Stats.Leaves || parallel.Stats.Depth != serial.Stats.Depth {
			t.Fatalf("%v: tree shape differs: %d/%d nodes, %d/%d leaves",
				strat, parallel.Stats.Nodes, serial.Stats.Nodes, parallel.Stats.Leaves, serial.Stats.Leaves)
		}
		if !sameSplits(parallel.Root, serial.Root) {
			t.Fatalf("%v: trees pick different splits", strat)
		}
		for _, tu := range ds.Tuples {
			a, b := serial.Classify(tu), parallel.Classify(tu)
			for c := range a {
				if math.Abs(a[c]-b[c]) > 1e-12 {
					t.Fatalf("%v: workers tree classifies differently: %v vs %v", strat, b, a)
				}
			}
		}
	}
}

// sameSplits reports whether two trees test the same attributes at the same
// split points everywhere.
func sameSplits(a, b *Node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return true
	}
	if a.Attr != b.Attr || a.Split != b.Split || a.Cat != b.Cat || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !sameSplits(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return sameSplits(a.Left, b.Left) && sameSplits(a.Right, b.Right)
}

// TestWorkersBuildRace mirrors TestParallelBuildRace with both parallelism
// knobs engaged: subtree goroutines each fanning out node-level workers.
func TestWorkersBuildRace(t *testing.T) {
	ds := buildRandomDataset(rand.New(rand.NewSource(42)), 200, 4, 5, 8)
	for trial := 0; trial < 3; trial++ {
		tr, err := Build(ds, Config{Strategy: split.ES, MinWeight: 1, Parallelism: 4, Workers: 4, PostPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Stats.Nodes == 0 {
			t.Fatal("empty tree")
		}
	}
}

// TestPooledFindersAcrossConfigs: builds of different configurations
// running at once share the process-wide finder pool, each re-aiming the
// finders it takes; every build must still produce the model bytes it
// produces alone.
func TestPooledFindersAcrossConfigs(t *testing.T) {
	ds := buildRandomDataset(rand.New(rand.NewSource(44)), 150, 3, 4, 10)
	cfgs := []Config{
		{Strategy: split.ES, MinWeight: 1, Parallelism: 2},
		{Strategy: split.GP, Measure: split.Gini, MinWeight: 1, Workers: 2},
		{Strategy: split.LP, Measure: split.GainRatio, MinWeight: 1},
		{Strategy: split.ES, EndPoints: split.PercentileEnds, MinWeight: 1, Parallelism: 2, Workers: 2},
	}
	encode := func(cfg Config) []byte {
		tr, err := Build(ds, cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal(tr)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = encode(cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := encode(cfg); !bytes.Equal(got, want[i]) {
					t.Errorf("config %d built concurrently: model bytes differ from its lone build", i)
				}
			}()
		}
	}
	wg.Wait()
}

// TestParallelismOneIsSerial: Parallelism <= 1 must not allocate the
// semaphore (pure serial path).
func TestParallelismOneIsSerial(t *testing.T) {
	ds := buildRandomDataset(rand.New(rand.NewSource(43)), 30, 1, 2, 4)
	for _, p := range []int{0, 1, -5} {
		if _, err := Build(ds, Config{Parallelism: p}); err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
	}
}
