package modelio

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"udt/internal/binfmt"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/pdf"
)

// loadBenchDataset is a four-attribute, three-class dataset big enough that
// a 25-member forest produces a multi-megabyte JSON document — the regime
// where parse-and-compile cost dominates a serving restart.
func loadBenchDataset(tb testing.TB, n int) *data.Dataset {
	tb.Helper()
	ds := data.NewDataset("loadbench", 4, []string{"a", "b", "c"})
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < n; i++ {
		c := i % 3
		base := float64(c * 3)
		pdfs := make([]*pdf.PDF, 4)
		for j := range pdfs {
			p, err := pdf.Uniform(base+rng.Float64()*2, base+2+rng.Float64()*2, 9)
			if err != nil {
				tb.Fatal(err)
			}
			pdfs[j] = p
		}
		ds.Add(c, pdfs...)
	}
	return ds
}

// loadBenchFiles trains a single tree and a trees-member forest and writes
// each in both formats, returning path cells in a fixed order:
// tree/json, tree/binary, forest/json, forest/binary.
type loadBenchCell struct {
	model, format, path string
}

func loadBenchFiles(tb testing.TB, dir string, trees int) ([]loadBenchCell, *data.Tuple) {
	tb.Helper()
	ds := loadBenchDataset(tb, 900)
	tree, err := core.Build(ds, core.Config{MinWeight: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tm, err := forest.FromTree(tree)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := forest.Train(ds, forest.Config{Trees: trees, Seed: 3, TreeConfig: core.Config{MinWeight: 2}})
	if err != nil {
		tb.Fatal(err)
	}

	writeJSON := func(name string, doc any) string {
		blob, err := json.Marshal(doc)
		if err != nil {
			tb.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			tb.Fatal(err)
		}
		return path
	}
	writeBinary := func(name string, m *forest.Forest) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := binfmt.EncodeForest(&buf, m); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			tb.Fatal(err)
		}
		return path
	}
	cells := []loadBenchCell{
		{"tree", "json", writeJSON("tree.json", tree)},
		{"tree", "binary", writeBinary("tree.udt", tm)},
		{"forest", "json", writeJSON("forest.json", f)},
		{"forest", "binary", writeBinary("forest.udt", f)},
	}
	return cells, ds.Tuples[0]
}

// BenchmarkModelLoad measures cold model load plus the first classification
// — the restart/hot-reload path — for the JSON document (parse + compile)
// versus the binary container (mmap + validate), on a single tree and a
// 25-member forest. The binary rows are the point of the format: load time
// independent of model size up to page-fault noise.
func BenchmarkModelLoad(b *testing.B) {
	dir := b.TempDir()
	cells, probe := loadBenchFiles(b, dir, 25)
	for _, cell := range cells {
		b.Run(cell.model+"/"+cell.format, func(b *testing.B) {
			info, err := os.Stat(cell.path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(info.Size())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := Load(cell.path)
				if err != nil {
					b.Fatal(err)
				}
				if dist := m.Classify(probe); len(dist) == 0 {
					b.Fatal("empty distribution")
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestModelLoadSmoke runs the BenchmarkModelLoad comparison once as a test:
// it checks prediction parity between formats and demands the binary
// container load a 25-member forest at least 5x faster than the JSON
// document (the real margin is orders of magnitude; 5x keeps CI immune to
// scheduler noise).
func TestModelLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke is not a -short test")
	}
	dir := t.TempDir()
	cells, probe := loadBenchFiles(t, dir, 25)

	const reps = 5
	best := make([]time.Duration, len(cells)) // fastest load per cell
	dists := make([][]float64, len(cells))
	for i, cell := range cells {
		for r := 0; r < reps; r++ {
			start := time.Now()
			m, err := Load(cell.path)
			load := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			dists[i] = m.Classify(probe)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if r == 0 || load < best[i] {
				best[i] = load
			}
		}
	}

	// Parity: both formats of each model answer the probe byte-identically.
	for i := 0; i < len(cells); i += 2 {
		jd, bd := dists[i], dists[i+1]
		if len(jd) == 0 || len(jd) != len(bd) {
			t.Fatalf("%s: probe answers have %d vs %d classes", cells[i].model, len(jd), len(bd))
		}
		for c := range jd {
			if jd[c] != bd[c] {
				t.Fatalf("%s probe class %d: json %v, binary %v", cells[i].model, c, jd[c], bd[c])
			}
		}
	}

	// The forest rows are cells[2] (json) and cells[3] (binary).
	jsonLoad, binLoad := best[2].Microseconds(), best[3].Microseconds()
	speedup := float64(jsonLoad) / float64(max(binLoad, 1))
	if speedup < 5 {
		t.Fatalf("forest binary load %dµs is only %.1fx faster than JSON %dµs, want >= 5x",
			binLoad, speedup, jsonLoad)
	}
	t.Logf("forest-25: json %dµs vs binary %dµs (%.1fx)", jsonLoad, binLoad, speedup)
}
