package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"udt"
)

// loadForest decodes the prepared forest JSON.
func loadForest(raw []byte) (*udt.Forest, error) {
	f := new(udt.Forest)
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("forest JSON: %w", err)
	}
	return f, nil
}

func runScore(ctx context.Context, o options) (*report, error) {
	rep := newReport("score")
	rawCSV, err := os.ReadFile(filepath.Join(o.work, fileScoreCSV))
	if err != nil {
		return rep, err
	}
	rawForest, err := os.ReadFile(filepath.Join(o.work, fileForestJSON))
	if err != nil {
		return rep, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Set-up: parse the scoring file and load the forest, setupReps times,
	// each timed on the process CPU clock.
	var ds *udt.Dataset
	var f *udt.Forest
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Each repetition starts from a collected heap, as a single parse
		// in a fresh process would.
		runtime.GC()
		c0 := cpuTime()
		id := tr.begin("data.ReadCSV", 0, int64(-1-i))
		ds, err = udt.ReadCSV(bytes.NewReader(rawCSV), "score")
		tr.end(id)
		if err != nil {
			return rep, fmt.Errorf("ReadCSV: %w", err)
		}
		id = tr.begin("json.Unmarshal", 0, int64(-1-i))
		f, err = loadForest(rawForest)
		tr.end(id)
		if err != nil {
			return rep, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	batch := ds.Tuples
	workers := runtime.NumCPU()

	// Serial Forest.Classify is the reference every batch must equal.
	want := make([][]float64, len(batch))
	for i, tu := range batch {
		want[i] = f.Classify(tu)
	}
	check := func(got [][]float64) error {
		for i := range want {
			if !sameBits(got[i], want[i]) {
				return fmt.Errorf("tuple %d: ClassifyBatch(%d workers) differs from serial Classify", i, workers)
			}
		}
		return nil
	}
	// op classifies and checks one batch and returns its wall time and the
	// CPU time all its workers used.
	op := func(tr *tracer, n int64) (wall, cpu time.Duration) {
		rep.Attempted++
		id := tr.begin("forest.ClassifyBatch", 0, n)
		t0, c0 := time.Now(), cpuTime()
		got := f.ClassifyBatch(batch, workers)
		wall, cpu = time.Since(t0), cpuTime()-c0
		tr.end(id)
		if err := check(got); err != nil {
			rep.Failed++
			rep.problem("batch %d: %v", n, err)
		}
		return wall, cpu
	}
	for n := int64(0); n < 5; n++ {
		op(nil, n)
	}
	st := f.Stats()
	rep.count("model.nodes", int64(st.Nodes))

	if o.trace {
		return rep, traceScore(ctx, o, rep, tr, f, batch, workers, op)
	}

	// As in train, the gated figures come from the process CPU clock: a
	// batch's latency is the CPU time its nproc workers used between them,
	// and throughput is tuples per CPU second. Wall time is kept in the
	// report as score.wall_p50_ms.
	var at []time.Duration
	var cpus, walls, work []float64
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var rssErr error
	peaks := atBoundaries(start, window, peakRSSReader("self", &rssErr))
	for n := int64(5); time.Since(start) < window && ctx.Err() == nil; n++ {
		wall, cpu := op(nil, n)
		at, work = append(at, time.Since(start)), append(work, float64(len(batch)))
		cpus, walls = append(cpus, ms(cpu)), append(walls, ms(wall))
	}
	thr, p50, _, p50s := segmentStats(at, cpus, work, window, 0)
	rep.slices("latency_p50_ms", p50s)
	_, wallP50, _, _ := segmentStats(at, walls, work, window, 0)
	rss := median((<-peaks)[1:])
	if rssErr != nil {
		return rep, fmt.Errorf("peak RSS: %w", rssErr)
	}
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.set("throughput_per_s", "1/s", thr, len(cpus))
	rep.set("latency_p50_ms", "ms", p50, len(cpus))
	rep.set("peak_rss_mb", "MiB", rss, segments)
	rep.set("score.wall_p50_ms", "ms", wallP50, len(walls))
	return rep, nil
}

// traceScore is the traced score pass: ReadCSV and forest-load spans,
// batches alternating untraced (latency tail, runtime counters, overhead
// base) and traced, then direct probes of the layers under ClassifyBatch.
func traceScore(ctx context.Context, o options, rep *report, tr *tracer, f *udt.Forest, batch []*udt.Tuple, workers int,
	op func(*tracer, int64) (time.Duration, time.Duration)) error {
	kids := tr.children()
	var parse, load []float64
	for _, id := range tr.named("data.ReadCSV") {
		parse = append(parse, ms(tr.selfTime(id, kids)))
	}
	for _, id := range tr.named("json.Unmarshal") {
		load = append(load, ms(tr.selfTime(id, kids)))
	}
	rep.set("score.data.csv_parse_ms", "ms", median(parse), len(parse))
	rep.set("forest.json_load_ms", "ms", median(load), len(load))

	var plain, walls, traced, gcs, allocs []float64
	var m0, m1 runtime.MemStats
	end := time.Now().Add(time.Duration(o.seconds * 0.6 * float64(time.Second)))
	for n := int64(5); time.Now().Before(end) && ctx.Err() == nil; n += 2 {
		runtime.ReadMemStats(&m0)
		wall, cpu := op(nil, n)
		runtime.ReadMemStats(&m1)
		plain, walls = append(plain, ms(cpu)), append(walls, ms(wall))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		_, cpu = op(tr, n+1)
		traced = append(traced, ms(cpu))
	}
	rep.set("score.latency_p90_ms", "ms", percentile(plain, 0.90), len(plain))
	rep.set("score.latency_p99_ms", "ms", percentile(plain, 0.99), len(plain))
	rep.set("score.wall_p50_ms", "ms", median(walls), len(walls))
	rep.set("score.runtime.gc_per_op", "count", mean(gcs), len(gcs))
	rep.set("score.runtime.alloc_mb_per_op", "MiB", mean(allocs), len(allocs))
	rep.set("score.trace.overhead_pct", "%", 100*(median(traced)/median(plain)-1), len(traced))

	// forest and par: the same batch on one worker and on nproc workers.
	perTuple := func(w int) float64 {
		var xs []float64
		for r := 0; r < 5; r++ {
			id := tr.begin(fmt.Sprintf("forest.ClassifyBatch.w%d", w), 0, int64(r))
			t0 := time.Now()
			f.ClassifyBatch(batch, w)
			xs = append(xs, float64(time.Since(t0))/float64(len(batch)))
			tr.end(id)
		}
		return median(xs)
	}
	serial, parallel := perTuple(1), perTuple(workers)
	rep.set("forest.ns_per_tuple.serial", "ns", serial, 5)
	rep.set("forest.ns_per_tuple.parallel", "ns", parallel, 5)
	rep.set("forest.parallel_eff", "ratio", serial/(parallel*float64(workers)), 5)

	// Compiled descent: one member's ClassifyInto over the batch.
	member := f.Members()[0].Compiled
	out := make([]float64, len(f.Classes))
	descend := func() {
		for _, tu := range batch {
			clear(out)
			member.ClassifyInto(tu, out)
		}
	}
	descend()
	var xs []float64
	for r := 0; r < 5; r++ {
		id := tr.begin("core.ClassifyInto", 0, int64(r))
		t0 := time.Now()
		descend()
		xs = append(xs, float64(time.Since(t0))/float64(len(batch)))
		tr.end(id)
	}
	runtime.ReadMemStats(&m0)
	descend()
	runtime.ReadMemStats(&m1)
	rep.set("core.descent_ns_per_tuple", "ns", median(xs), len(xs))
	rep.set("core.allocs_per_tuple", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(batch)), len(batch))

	rep.set("score.pdf.split_ns", "ns", splitNs(batch), len(batch)*numAttrs)
	return writeTrace(o, "score", tr)
}
