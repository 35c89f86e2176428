package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"udt/internal/binfmt"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/par"
	"udt/internal/pdf"
)

// testLog swallows structured output so tests stay quiet.
func testLog() *slog.Logger {
	return slog.New(slog.NewJSONHandler(&bytes.Buffer{}, nil))
}

// twoClassDataset builds a small separable numeric dataset. flip inverts the
// class labels, producing a model that disagrees with the unflipped one on
// every tuple — the shadow-divergence fixture.
func twoClassDataset(n int, flip bool) *data.Dataset {
	ds := data.NewDataset("demo", 2, []string{"lo", "hi"})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		c := i % 2
		base := float64(c * 10)
		label := c
		if flip {
			label = 1 - c
		}
		p1, _ := pdf.Uniform(base-1+rng.Float64(), base+1+rng.Float64(), 7)
		ds.Add(label, p1, pdf.Point(base+rng.Float64()))
	}
	return ds
}

// writeTreeJSON trains a single tree and writes it as a JSON model file.
func writeTreeJSON(t *testing.T, path string, flip bool) {
	t.Helper()
	tree, err := core.Build(twoClassDataset(80, flip), core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeForestBinary trains a bagged forest and writes it as a binary (mmap-
// served) container, exercising the close-on-drain path for real.
func writeForestBinary(t *testing.T, path string, trees int) {
	t.Helper()
	fr, err := forest.Train(twoClassDataset(80, false),
		forest.Config{Trees: trees, Seed: 3, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := binfmt.EncodeForest(&buf, fr); err != nil {
		t.Fatal(err)
	}
	// Atomic rename, matching the binfmt deploy contract.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// probe classifies one easy tuple and returns the argmax.
func probe(t *testing.T, am *Active) int {
	t.Helper()
	p, _ := pdf.Uniform(9.5, 10.5, 7)
	dist := am.Model.Classify(&data.Tuple{Num: []*pdf.PDF{p, pdf.Point(10.2)}, Weight: 1})
	return par.Argmax(dist)
}

func TestOpenSingleFileIsDefault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	writeTreeJSON(t, path, false)
	r, err := Open(Options{Path: path, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 || r.DefaultName() != DefaultName {
		t.Fatalf("Len=%d default=%q, want 1/%q", r.Len(), r.DefaultName(), DefaultName)
	}
	e := r.Default()
	if e == nil || e != r.Get(DefaultName) {
		t.Fatal("default entry not reachable by name")
	}
	am := e.Acquire()
	if am == nil {
		t.Fatal("Acquire returned nil on live entry")
	}
	defer am.Release()
	if am.Generation != 1 {
		t.Fatalf("generation = %d, want 1", am.Generation)
	}
	if got := probe(t, am); got != 1 {
		t.Fatalf("probe class = %d, want 1", got)
	}
}

func TestOpenDirNamesAndDefault(t *testing.T) {
	dir := t.TempDir()
	writeTreeJSON(t, filepath.Join(dir, "alpha.json"), false)
	writeForestBinary(t, filepath.Join(dir, "beta.udt"), 3)
	r, err := Open(Options{Path: dir, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := fmt.Sprint(r.Names()), "[alpha beta]"; got != want {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	// Two models, none named "default", none marked: legacy routes have no
	// backing entry.
	if r.Default() != nil {
		t.Fatalf("Default = %v, want nil", r.Default().Name)
	}

	writeTreeJSON(t, filepath.Join(dir, "default.json"), false)
	r2, err := Open(Options{Path: dir, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.DefaultName() != DefaultName {
		t.Fatalf("default = %q, want %q", r2.DefaultName(), DefaultName)
	}
}

func TestOpenManifest(t *testing.T) {
	dir := t.TempDir()
	writeTreeJSON(t, filepath.Join(dir, "a.json"), false)
	writeForestBinary(t, filepath.Join(dir, "b.udt"), 3)
	manifest := filepath.Join(dir, "models.manifest.json")
	doc := `{"models":[
		{"name":"tree-a","path":"a.json","default":true},
		{"name":"forest-b","path":"b.udt","maxStreams":2}
	]}`
	if err := os.WriteFile(manifest, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Path: manifest, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.DefaultName() != "tree-a" {
		t.Fatalf("default = %q, want tree-a", r.DefaultName())
	}
	if e := r.Get("forest-b"); e == nil || e.MaxStreams != 2 {
		t.Fatalf("forest-b maxStreams = %+v, want 2", e)
	}

	// Strict decode: unknown fields refuse the manifest rather than silently
	// dropping config.
	bad := filepath.Join(dir, "bad.manifest.json")
	os.WriteFile(bad, []byte(`{"models":[],"oops":1}`), 0o644)
	if _, err := Open(Options{Path: bad, Log: testLog()}); err == nil {
		t.Fatal("unknown manifest field accepted")
	}
}

func TestOpenRejects(t *testing.T) {
	dir := t.TempDir()
	writeTreeJSON(t, filepath.Join(dir, "ok.json"), false)
	cases := map[string]string{
		"dup":     `{"models":[{"name":"x","path":"ok.json"},{"name":"x","path":"ok.json"}]}`,
		"badname": `{"models":[{"name":"a/b","path":"ok.json"}]}`,
		"twodflt": `{"models":[{"name":"x","path":"ok.json","default":true},{"name":"y","path":"ok.json","default":true}]}`,
		"badload": `{"models":[{"name":"x","path":"absent.json"}]}`,
		"negcap":  `{"models":[{"name":"x","path":"ok.json","maxStreams":-1}]}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".manifest.json")
			os.WriteFile(p, []byte(doc), 0o644)
			if _, err := Open(Options{Path: p, Log: testLog()}); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	if _, err := Open(Options{Path: filepath.Join(dir, "empty.manifest.json")}); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

// TestReloadDrainsOldGeneration: a reference held across a reload keeps
// serving the old (binary, mmap'd) generation; the swap bumps the
// generation; eviction of nothing happens.
func TestReloadDrainsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.udt")
	writeForestBinary(t, path, 3)
	r, err := Open(Options{Path: path, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e := r.Default()

	held := e.Acquire()
	writeForestBinary(t, path, 5)
	am, err := e.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if am.Generation != 2 || e.Generation() != 2 {
		t.Fatalf("generation = %d/%d, want 2", am.Generation, e.Generation())
	}
	// The old generation is retired but must still classify: its mapping is
	// alive until the held reference drops.
	if got := probe(t, held); got != 1 {
		t.Fatalf("old generation probe = %d, want 1", got)
	}
	held.Release()
	fresh := e.Acquire()
	defer fresh.Release()
	if fresh.Generation != 2 {
		t.Fatalf("acquired generation = %d, want 2", fresh.Generation)
	}
}

// TestWatchVsReloadStampConsistency pins the lastStamp bugfix: the poller's
// stamp compare-and-remember and explicit reloads both run under reloadMu,
// so hammering them concurrently (under -race) can never record a stamp for
// content that was never loaded — a final write is always detected by the
// next poll. The pre-fix code stored the stamp through an atomic pointer
// outside the mutex, where a poller could stamp a file version an
// interleaved reload never read.
func TestWatchVsReloadStampConsistency(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.udt")
	writeForestBinary(t, path, 3)
	r, err := Open(Options{Path: path, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e := r.Default()

	var bg sync.WaitGroup
	stop := make(chan struct{})
	bg.Add(2)
	go func() { // deployer: rewrites the file
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			writeForestBinary(t, path, 3+i%2)
		}
	}()
	go func() { // watch poller
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.MaybeReload()
		}
	}()
	// POST /reload hammer, racing both of the above.
	for i := 0; i < 50; i++ {
		if _, err := e.Reload(); err != nil {
			t.Fatalf("reload: %v", err)
		}
	}
	close(stop)
	bg.Wait()

	// The pinned property: after the dust settles, a final deploy is always
	// detected — no interleaving may have recorded its stamp without loading
	// its content. The 7-tree file differs in size from every 3/4-tree write
	// above, so its stamp cannot collide with a remembered one.
	writeForestBinary(t, path, 7)
	am, reloaded, err := e.MaybeReload()
	if err != nil || !reloaded {
		t.Fatalf("final poll: reloaded=%v err=%v, want true/nil", reloaded, err)
	}
	if n := am.Model.NumTrees(); n != 7 {
		t.Fatalf("final generation trees = %d, want 7", n)
	}
	// And an unchanged file does not reload again.
	if _, again, _ := e.MaybeReload(); again {
		t.Fatal("unchanged file reloaded")
	}
}

// TestEvictUnderInflight: Remove makes new acquires fail immediately while a
// request already holding a reference keeps serving its (mmap'd) model until
// it releases.
func TestEvictUnderInflight(t *testing.T) {
	dir := t.TempDir()
	writeForestBinary(t, filepath.Join(dir, "a.udt"), 3)
	writeForestBinary(t, filepath.Join(dir, "b.udt"), 4)
	writeTreeJSON(t, filepath.Join(dir, "default.json"), false)
	r, err := Open(Options{Path: dir, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	e := r.Get("b")
	held := e.Acquire()
	if _, err := r.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if r.Get("b") != nil || r.Len() != 2 {
		t.Fatal("evicted entry still listed")
	}
	if e.Acquire() != nil {
		t.Fatal("Acquire succeeded on evicted entry")
	}
	// The in-flight reference still classifies from the unmapped-only-later
	// mapping.
	if got := probe(t, held); got != 1 {
		t.Fatalf("in-flight probe after evict = %d, want 1", got)
	}
	held.Release()

	if _, err := r.Remove("b"); err == nil {
		t.Fatal("double Remove succeeded")
	}
	if _, err := r.Remove("default"); err == nil {
		t.Fatal("evicting the default entry succeeded")
	}
}

// TestShadowCompare: a shadow identical to the primary produces comparisons
// with zero divergence; a label-flipped shadow diverges on every tuple, in
// argmax and distribution both — and only the shadowed entry's counters
// move (per-model isolation at the registry layer).
func TestShadowCompare(t *testing.T) {
	dir := t.TempDir()
	same := filepath.Join(dir, "same.json")
	flipped := filepath.Join(dir, "flipped.json")
	primary := filepath.Join(dir, "primary.json")
	writeTreeJSON(t, primary, false)
	writeTreeJSON(t, same, false)
	writeTreeJSON(t, flipped, true)

	tuples := make([]*data.Tuple, 0, 8)
	for i := 0; i < 8; i++ {
		base := float64((i % 2) * 10)
		p, _ := pdf.Uniform(base-0.5, base+0.5, 7)
		tuples = append(tuples, &data.Tuple{Num: []*pdf.PDF{p, pdf.Point(base + 0.2)}, Weight: 1})
	}

	for name, tc := range map[string]struct {
		shadow     string
		wantArgmax bool
	}{
		"identical": {same, false},
		"flipped":   {flipped, true},
	} {
		t.Run(name, func(t *testing.T) {
			r, err := Open(Options{Path: primary, Shadow: tc.shadow, Log: testLog()})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			e := r.Default()
			other := &Entry{Name: "other"} // isolation probe: must stay zero

			am := e.Acquire()
			dists := am.Model.ClassifyBatch(tuples, 2)
			preds := make([]int, len(dists))
			for i, d := range dists {
				preds[i] = par.Argmax(d)
			}
			am.Release()
			e.ShadowCompare(tuples, preds, dists, 2)

			if got := e.Metrics.ShadowComparisons.Load(); got != int64(len(tuples)) {
				t.Fatalf("comparisons = %d, want %d", got, len(tuples))
			}
			adiv := e.Metrics.ShadowArgmaxDivergence.Load()
			ddiv := e.Metrics.ShadowDistDivergence.Load()
			if tc.wantArgmax && (adiv != int64(len(tuples)) || ddiv != int64(len(tuples))) {
				t.Fatalf("divergence = %d/%d, want all %d", adiv, ddiv, len(tuples))
			}
			if !tc.wantArgmax && (adiv != 0 || ddiv != 0) {
				t.Fatalf("divergence = %d/%d on identical shadow", adiv, ddiv)
			}
			if other.Metrics.ShadowComparisons.Load() != 0 {
				t.Fatal("unshadowed entry's counters moved")
			}

			// Early-exit shape: nil dists compares argmax only.
			before := ddiv
			e.ShadowCompare(tuples, preds, nil, 2)
			if e.Metrics.ShadowDistDivergence.Load() != before {
				t.Fatal("nil dists moved the distribution divergence counter")
			}
		})
	}

	// No shadow configured: a no-op.
	r, err := Open(Options{Path: primary, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Default().ShadowCompare(tuples, make([]int, len(tuples)), nil, 2)
	if r.Default().Metrics.ShadowComparisons.Load() != 0 {
		t.Fatal("shadowless entry recorded comparisons")
	}
}

// TestShadowReloadsWithPrimary: a reload re-reads the shadow too, and a
// broken shadow fails the reload leaving the old pair serving.
func TestShadowReloadsWithPrimary(t *testing.T) {
	dir := t.TempDir()
	primary := filepath.Join(dir, "primary.json")
	shadow := filepath.Join(dir, "shadow.json")
	writeTreeJSON(t, primary, false)
	writeTreeJSON(t, shadow, false)
	r, err := Open(Options{Path: primary, Shadow: shadow, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e := r.Default()

	if _, err := e.Reload(); err != nil {
		t.Fatal(err)
	}
	sh := e.AcquireShadow()
	if sh == nil || sh.Generation != 2 {
		t.Fatalf("shadow generation = %v, want 2", sh)
	}
	sh.Release()

	if err := os.WriteFile(shadow, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reload(); err == nil {
		t.Fatal("reload with broken shadow succeeded")
	}
	if e.Generation() != 2 {
		t.Fatalf("generation moved to %d on failed reload", e.Generation())
	}
	am := e.Acquire()
	defer am.Release()
	if got := probe(t, am); got != 1 {
		t.Fatalf("probe after failed reload = %d, want 1", got)
	}
}

// TestPoll: one tick reloads exactly the entries whose files changed, in
// name order, and reports per-entry errors without stopping the sweep.
func TestPoll(t *testing.T) {
	dir := t.TempDir()
	writeForestBinary(t, filepath.Join(dir, "a.udt"), 3)
	writeForestBinary(t, filepath.Join(dir, "b.udt"), 3)
	writeTreeJSON(t, filepath.Join(dir, "c.json"), false)
	r, err := Open(Options{Path: dir, Log: testLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if res := r.Poll(); len(res) != 0 {
		t.Fatalf("poll with no changes reloaded %d entries", len(res))
	}
	writeForestBinary(t, filepath.Join(dir, "b.udt"), 5)
	if err := os.WriteFile(filepath.Join(dir, "c.json"), []byte("broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := r.Poll()
	if len(res) != 2 || res[0].Entry.Name != "b" || res[1].Entry.Name != "c" {
		t.Fatalf("poll results = %+v, want [b c]", res)
	}
	if res[0].Err != nil || res[0].Generation != 2 {
		t.Fatalf("b: gen=%d err=%v, want 2/nil", res[0].Generation, res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("broken c.json reloaded without error")
	}
	// The broken file was stamped: the next tick does not retry it.
	if res := r.Poll(); len(res) != 0 {
		t.Fatalf("second poll retried %d entries", len(res))
	}
}
