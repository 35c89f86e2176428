package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"udt/internal/boost"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/obs"
	"udt/internal/pdf"
	"udt/internal/split"
)

// ringDataset builds a small three-class dataset with enough structure that
// depth-limited trees leave residual error for boosting to chew on.
func ringDataset(rng *rand.Rand, n int) *data.Dataset {
	ds := data.NewDataset("ring", 2, []string{"a", "b", "c"})
	for i := 0; i < n; i++ {
		c := i % 3
		angle := rng.Float64()*2*math.Pi/3 + float64(c)*2*math.Pi/3
		r := 1 + rng.Float64()*2
		px, _ := pdf.Uniform(r*math.Cos(angle)-0.3, r*math.Cos(angle)+0.3, 7)
		py, _ := pdf.Uniform(r*math.Sin(angle)-0.3, r*math.Sin(angle)+0.3, 7)
		ds.Add(c, px, py)
	}
	return ds
}

// TestBuildProgressObservational: a hooked build emits per-node events and
// produces the byte-identical model a silent build does — hooks observe
// training, never influence it.
func TestBuildProgressObservational(t *testing.T) {
	ds := ringDataset(rand.New(rand.NewSource(11)), 120)
	cfg := core.Config{MaxDepth: 4, MinWeight: 2}

	plain, err := core.Build(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var events []obs.NodeSearch
	cfg.Progress = &obs.ProgressHook{OnNode: func(e obs.NodeSearch) { events = append(events, e) }}
	hooked, err := core.Build(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(events) == 0 {
		t.Fatal("no node-search events")
	}
	var found bool
	for _, e := range events {
		if e.Tuples <= 0 || e.Depth < 0 || e.Elapsed < 0 {
			t.Fatalf("bad event %+v", e)
		}
		found = found || e.Found
	}
	if !found {
		t.Fatal("no search found a split, but the tree is non-trivial")
	}

	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(hooked)
	if !bytes.Equal(a, b) {
		t.Fatal("progress hook changed the built tree")
	}
}

// TestTrainProgressCountsWork: the per-node work counters add up to the
// build's own totals, which the summary reports.
func TestTrainProgressCountsWork(t *testing.T) {
	ds := ringDataset(rand.New(rand.NewSource(3)), 120)
	prog := obs.NewTrainProgress(nil)
	tree, err := core.Build(ds, core.Config{Strategy: split.ES, MinWeight: 2, Progress: prog.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats.Search
	if st.Indexed == 0 {
		t.Fatal("the build indexed nothing")
	}
	var sum bytes.Buffer
	prog.Summary(&sum)
	want := fmt.Sprintf("; %d entropy calcs, %d samples indexed\n", st.EntropyCalcs(), st.Indexed)
	if !strings.HasSuffix(sum.String(), want) {
		t.Fatalf("summary %q does not end with %q", sum.String(), want)
	}
}

func TestForestProgressObservational(t *testing.T) {
	ds := ringDataset(rand.New(rand.NewSource(5)), 100)
	cfg := forest.Config{Trees: 5, Seed: 3, Workers: 4, TreeConfig: core.Config{MaxDepth: 3, MinWeight: 2}}

	plain, err := forest.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	prog := obs.NewTrainProgress(nil)
	cfg.TreeConfig.Progress = prog.Hook()
	hooked, err := forest.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	members := prog.Members()
	if len(members) != cfg.Trees {
		t.Fatalf("%d member events for %d trees", len(members), cfg.Trees)
	}
	seen := map[int]bool{}
	for _, m := range members {
		if m.Total != cfg.Trees || m.Nodes <= 0 || m.Elapsed <= 0 {
			t.Fatalf("bad member event %+v", m)
		}
		seen[m.Index] = true
	}
	if len(seen) != cfg.Trees {
		t.Fatalf("member indices not distinct: %v", seen)
	}
	if prog.Nodes() == 0 || prog.SearchHist().Total() != prog.Nodes() {
		t.Fatalf("node accounting: nodes=%d hist=%d", prog.Nodes(), prog.SearchHist().Total())
	}

	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(hooked)
	if !bytes.Equal(a, b) {
		t.Fatal("progress hook changed the trained forest")
	}
}

func TestBoostProgressObservational(t *testing.T) {
	ds := ringDataset(rand.New(rand.NewSource(7)), 180)
	cfg := boost.Config{Rounds: 8, TreeConfig: core.Config{MaxDepth: 2, MinWeight: 2}}

	plain, err := boost.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	prog := obs.NewTrainProgress(nil)
	cfg.TreeConfig.Progress = prog.Hook()
	hooked, err := boost.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rounds := prog.Rounds()
	var kept int
	for i, r := range rounds {
		if r.Round != i+1 {
			t.Fatalf("round numbering: event %d is round %d", i, r.Round)
		}
		if r.Kept {
			kept++
		}
	}
	if kept != hooked.NumTrees() {
		t.Fatalf("%d kept rounds for %d members", kept, hooked.NumTrees())
	}
	ws := hooked.Weights()
	wi := 0
	for _, r := range rounds {
		if !r.Kept {
			continue
		}
		if math.Abs(r.Alpha-ws[wi]) > 1e-12 {
			t.Fatalf("round %d alpha %.6f, ensemble weight %.6f", r.Round, r.Alpha, ws[wi])
		}
		wi++
	}

	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(hooked)
	if !bytes.Equal(a, b) {
		t.Fatal("progress hook changed the boosted ensemble")
	}
}

// TestTrainProgressNarration: the live writer gets one line per member and
// the summary digests the split searches.
func TestTrainProgressNarration(t *testing.T) {
	ds := ringDataset(rand.New(rand.NewSource(2)), 90)
	var out bytes.Buffer
	prog := obs.NewTrainProgress(&out)
	cfg := forest.Config{Trees: 3, Seed: 1, TreeConfig: core.Config{MaxDepth: 3, MinWeight: 2, Progress: prog.Hook()}}
	if _, err := forest.Train(ds, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "progress: member ")
	if lines != cfg.Trees {
		t.Fatalf("%d member lines, want %d:\n%s", lines, cfg.Trees, out.String())
	}

	var sum bytes.Buffer
	prog.Summary(&sum)
	if !strings.Contains(sum.String(), "split searches") {
		t.Fatalf("summary = %q", sum.String())
	}

	var empty bytes.Buffer
	obs.NewTrainProgress(nil).Summary(&empty)
	if !strings.Contains(empty.String(), "no split searches") {
		t.Fatalf("empty summary = %q", empty.String())
	}
}
