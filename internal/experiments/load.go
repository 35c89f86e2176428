package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"udt/internal/binfmt"
	"udt/internal/core"
	"udt/internal/forest"
	"udt/internal/modelio"
	"udt/internal/split"
)

// LoadRow is one (model, format) cell of a ModelLoad run.
type LoadRow struct {
	Model   string        // "tree" or "forest-N"
	Format  string        // "json" or "binary"
	Bytes   int64         // model file size on disk
	Load    time.Duration // modelio.Load wall time (best of reps)
	First   time.Duration // first classification after the load
	Speedup float64       // JSON load time of the same model / this load time
}

// ModelLoad measures model cold-start — the time from "file on disk" to
// "first answer served" — for the JSON document format (parse + compile)
// versus the binary mmap container (map + validate, zero parse), on a single
// tree and a trees-member bagged forest over the shared synthetic cluster
// dataset. Each cell reports the best of several repetitions: the page cache
// is warm either way, so the comparison isolates format decode cost, which
// is exactly what a serving restart or hot reload pays.
//
// Both formats must answer the probe identically; a mismatch is an error,
// not a row.
func ModelLoad(o Options, trees int) ([]LoadRow, error) {
	o = o.withDefaults()
	if trees <= 0 {
		trees = 25
	}
	ds, err := syntheticClusters(o, "load-synthetic", 4000)
	if err != nil {
		return nil, err
	}
	cfg := o.treeConfig(split.ES)
	cfg.PostPrune = false
	cfg.Parallelism = 1
	tree, err := core.Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	treeModel, err := forest.FromTrees([]forest.WeightedTree{{Tree: tree, Weight: 1}}, forest.KindTree)
	if err != nil {
		return nil, err
	}
	f, err := forest.Train(ds, forest.Config{
		Trees:      trees,
		Seed:       o.Seed,
		Workers:    max(o.Parallelism, 1),
		TreeConfig: cfg,
	})
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "udt-load")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	writeJSON := func(name string, doc any) (string, error) {
		blob, err := json.Marshal(doc)
		if err != nil {
			return "", err
		}
		path := filepath.Join(dir, name)
		return path, os.WriteFile(path, blob, 0o644)
	}
	writeBinary := func(name string, m *forest.Forest) (string, error) {
		var buf bytes.Buffer
		if err := binfmt.EncodeForest(&buf, m); err != nil {
			return "", err
		}
		path := filepath.Join(dir, name)
		return path, os.WriteFile(path, buf.Bytes(), 0o644)
	}

	cells := []struct {
		model string
		write func() (string, error)
	}{
		{"tree", func() (string, error) { return writeJSON("tree.json", tree) }},
		{"tree", func() (string, error) { return writeBinary("tree.udt", treeModel) }},
		{fmt.Sprintf("forest-%d", trees), func() (string, error) { return writeJSON("forest.json", f) }},
		{fmt.Sprintf("forest-%d", trees), func() (string, error) { return writeBinary("forest.udt", f) }},
	}

	probe := ds.Tuples[0]
	const reps = 5
	var rows []LoadRow
	dists := make([][]float64, len(cells))
	for i, cell := range cells {
		path, err := cell.write()
		if err != nil {
			return nil, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		row := LoadRow{Model: cell.model, Format: "json", Bytes: info.Size()}
		if i%2 == 1 {
			row.Format = "binary"
		}
		for r := 0; r < reps; r++ {
			start := time.Now()
			m, err := modelio.Load(path)
			load := time.Since(start)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			got := m.Classify(probe)
			first := time.Since(start)
			if err := m.Close(); err != nil {
				return nil, err
			}
			dists[i] = got
			if r == 0 || load < row.Load {
				row.Load = load
			}
			if r == 0 || first < row.First {
				row.First = first
			}
		}
		rows = append(rows, row)
	}
	// Both formats of a model must answer the probe byte-identically.
	for i := 0; i < len(cells); i += 2 {
		jd, bd := dists[i], dists[i+1]
		if len(jd) != len(bd) {
			return nil, fmt.Errorf("experiments: %s probe answers have %d vs %d classes", cells[i].model, len(jd), len(bd))
		}
		for c := range jd {
			if jd[c] != bd[c] {
				return nil, fmt.Errorf("experiments: %s probe class %d: json %v, binary %v", cells[i].model, c, jd[c], bd[c])
			}
		}
	}
	// Speedup: JSON load of the same model divided by this cell's load.
	for i := range rows {
		rows[i].Speedup = float64(rows[i&^1].Load) / float64(max(rows[i].Load, time.Nanosecond))
	}
	return rows, nil
}

// FprintLoad renders a ModelLoad run.
func FprintLoad(w io.Writer, rows []LoadRow) {
	fmt.Fprintf(w, "%12s %8s %10s %12s %12s %9s\n", "model", "format", "bytes", "load", "first", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s %8s %10d %12v %12v %8.1fx\n",
			r.Model, r.Format, r.Bytes,
			r.Load.Round(time.Microsecond), r.First.Round(time.Microsecond), r.Speedup)
	}
}
