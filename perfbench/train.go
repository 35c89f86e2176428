package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"udt"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so a few slow repetitions cannot move it.
const setupReps = 11

// trainConfig is what "udtree train" runs: UDT-ES with post-pruning, every
// other field at its default.
func trainConfig() udt.Config { return udt.Config{Strategy: udt.StrategyES, PostPrune: true} }

// trainResult is what one train op produced.
type trainResult struct {
	tree     *udt.Tree
	compiled *udt.Compiled
	digest   [32]byte // sha256 of the model JSON
}

// trainOp is one train operation: Build, Compile, json.Marshal. With a
// tracer it records a span per call under an op span, and with onBuild it
// tells the caller the Build span's id (the parent of node spans).
func trainOp(ds *udt.Dataset, cfg udt.Config, tr *tracer, op int64, onBuild func(id int)) (trainResult, error) {
	root := tr.begin("train.op", 0, op)
	defer tr.end(root)
	b := tr.begin("core.Build", root, op)
	if onBuild != nil {
		onBuild(b)
	}
	tree, err := udt.Build(ds, cfg)
	tr.end(b)
	if err != nil {
		return trainResult{}, fmt.Errorf("Build: %w", err)
	}
	c := tr.begin("core.Compile", root, op)
	compiled, err := tree.Compile()
	tr.end(c)
	if err != nil {
		return trainResult{}, fmt.Errorf("Compile: %w", err)
	}
	m := tr.begin("json.Marshal", root, op)
	blob, err := json.Marshal(tree)
	tr.end(m)
	if err != nil {
		return trainResult{}, fmt.Errorf("Marshal: %w", err)
	}
	return trainResult{tree: tree, compiled: compiled, digest: sha256.Sum256(blob)}, nil
}

// checkTrain compares an op's output with the reference op's: same node
// count, same entropy-calculation count, same model bytes.
func checkTrain(ref, got trainResult) error {
	rs, gs := ref.tree.Stats, got.tree.Stats
	switch {
	case gs.Nodes != rs.Nodes:
		return fmt.Errorf("core.nodes %d, reference %d", gs.Nodes, rs.Nodes)
	case gs.Search.EntropyCalcs() != rs.Search.EntropyCalcs():
		return fmt.Errorf("split.entropy_calcs %d, reference %d", gs.Search.EntropyCalcs(), rs.Search.EntropyCalcs())
	case got.digest != ref.digest:
		return fmt.Errorf("model JSON differs from the reference op's")
	}
	return nil
}

// checkCompiled requires the compiled engine to classify every probe tuple
// bit for bit as the pointer tree does.
func checkCompiled(r trainResult, probe []*udt.Tuple) error {
	for i, tu := range probe {
		if !sameBits(r.compiled.Classify(tu), r.tree.Classify(tu)) {
			return fmt.Errorf("probe tuple %d: Compiled.Classify differs from Tree.Classify", i)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// readCSVReps parses the file setupReps times (one span each) and returns
// the dataset and each parse's CPU time in seconds.
func readCSVReps(raw []byte, name string, tr *tracer) (*udt.Dataset, []float64, error) {
	var ds *udt.Dataset
	var secs []float64
	for i := 0; i < setupReps; i++ {
		// Each repetition starts from a collected heap, as a single parse
		// in a fresh process would.
		runtime.GC()
		id := tr.begin("data.ReadCSV", 0, int64(-1-i))
		c0 := cpuTime()
		d, err := udt.ReadCSV(bytes.NewReader(raw), name)
		secs = append(secs, (cpuTime() - c0).Seconds())
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("ReadCSV %s: %w", name, err)
		}
		ds = d
	}
	return ds, secs, nil
}

func runTrain(ctx context.Context, o options) (*report, error) {
	// A train op is serial (udtree train's defaults leave Workers and
	// Parallelism at 1), so the pass runs on one P: the collector's work then
	// lands on the op's own thread and CPU clock. With a second, idle P the
	// runtime runs idle-time mark workers there, and the process CPU time of
	// a ReadCSV moved by 15% from one run to the next.
	runtime.GOMAXPROCS(1)
	rep := newReport("train")
	raw, err := os.ReadFile(filepath.Join(o.work, fileTrainCSV))
	if err != nil {
		return rep, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ds, setups, err := readCSVReps(raw, "train", tr)
	if err != nil {
		return rep, err
	}
	probe := ds.Tuples[:min(64, len(ds.Tuples))]
	cfg := trainConfig()

	// The reference op fixes the exact counters every later op must repeat;
	// it and one more op warm the process up before the clock starts.
	rep.Attempted++
	ref, err := trainOp(ds, cfg, nil, 0, nil)
	if err != nil {
		return rep, err
	}
	if err := checkCompiled(ref, probe); err != nil {
		rep.Failed++
		rep.problem("%v", err)
	}
	st := ref.tree.Stats
	rep.count("core.nodes", int64(st.Nodes))
	rep.count("core.depth", int64(st.Depth))
	rep.count("split.entropy_calcs", st.Search.EntropyCalcs())
	// op runs and checks one train op and returns its wall and CPU times.
	op := func(tr *tracer, n int64, onBuild func(int), c udt.Config) (wall, cpu time.Duration) {
		rep.Attempted++
		t0, c0 := time.Now(), cpuTime()
		got, err := trainOp(ds, c, tr, n, onBuild)
		wall, cpu = time.Since(t0), cpuTime()-c0
		if err == nil {
			err = checkTrain(ref, got)
		}
		if err != nil {
			rep.Failed++
			rep.problem("op %d: %v", n, err)
		}
		return wall, cpu
	}
	op(nil, 1, nil, cfg)

	if o.trace {
		return rep, traceTrain(ctx, o, rep, tr, ds, ref, probe, op)
	}

	// The gated figures time each op on the process CPU clock, which the
	// host's other tenants do not move (see cpuTime); wall time is kept in
	// the report as train.wall_p50_ms.
	var at []time.Duration
	var cpus, walls, work []float64
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var rssErr error
	peaks := atBoundaries(start, window, peakRSSReader("self", &rssErr))
	for n := int64(2); time.Since(start) < window && ctx.Err() == nil; n++ {
		wall, cpu := op(nil, n, nil, cfg)
		at, work = append(at, time.Since(start)), append(work, float64(len(ds.Tuples)))
		cpus, walls = append(cpus, ms(cpu)), append(walls, ms(wall))
	}
	thr, p50, _, p50s := segmentStats(at, cpus, work, window, 0)
	rep.slices("latency_p50_ms", p50s)
	_, wallP50, _, _ := segmentStats(at, walls, work, window, 0)
	final, err := trainOp(ds, cfg, nil, -1, nil)
	if err == nil {
		err = checkCompiled(final, probe)
	}
	if err != nil {
		rep.Failed++
		rep.problem("after the loop: %v", err)
	}
	rss := median((<-peaks)[1:])
	if rssErr != nil {
		return rep, fmt.Errorf("peak RSS: %w", rssErr)
	}
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.set("throughput_per_s", "1/s", thr, len(cpus))
	rep.set("latency_p50_ms", "ms", p50, len(cpus))
	rep.set("peak_rss_mb", "MiB", rss, segments)
	rep.set("train.wall_p50_ms", "ms", wallP50, len(walls))
	return rep, nil
}

// traceTrain is the traced train pass: ReadCSV spans, root split search per
// §5 strategy, then train ops alternating untraced (for the overhead and
// the runtime counters) and traced (Build with per-node split-search
// spans, Compile, Marshal).
func traceTrain(ctx context.Context, o options, rep *report, tr *tracer, ds *udt.Dataset, ref trainResult, probe []*udt.Tuple,
	op func(*tracer, int64, func(int), udt.Config) (time.Duration, time.Duration)) error {
	if probes == nil {
		return errNoProbes
	}
	kids := tr.children()
	var parse []float64
	for _, id := range tr.named("data.ReadCSV") {
		parse = append(parse, ms(tr.selfTime(id, kids)))
	}
	rep.set("train.data.csv_parse_ms", "ms", median(parse), len(parse))

	// Root split search per strategy: a depth-1 build searches the root only.
	for _, s := range []struct {
		name string
		st   udt.Strategy
	}{{"udt", udt.StrategyUDT}, {"bp", udt.StrategyBP}, {"lp", udt.StrategyLP}, {"gp", udt.StrategyGP}, {"es", udt.StrategyES}} {
		var times []float64
		var calcs int64 = -1
		for r := 0; r < 3; r++ {
			id := tr.begin("split.root."+s.name, 0, int64(r))
			t0 := time.Now()
			t, err := udt.Build(ds, udt.Config{Strategy: s.st, MaxDepth: 1})
			times = append(times, ms(time.Since(t0)))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("root build %s: %w", s.name, err)
			}
			c := t.Stats.Search.EntropyCalcs()
			if calcs >= 0 && c != calcs {
				rep.problem("split.root_calcs.%s drifted: %d then %d", s.name, calcs, c)
			}
			calcs = c
		}
		rep.set("split.root_ms."+s.name, "ms", median(times), len(times))
		rep.count("split.root_calcs."+s.name, calcs)
	}

	rep.set("train.pdf.split_ns", "ns", splitNs(ds.Tuples), len(ds.Tuples)*numAttrs)

	var buildID int
	hooked := probes.nodeSpans(trainConfig(), func(start, end time.Time) {
		tr.add("split.node", buildID, 0, start, end)
	})
	var plain, walls, traced []float64
	var gcs, allocs []float64
	var ms0, ms1 runtime.MemStats
	end := time.Now().Add(time.Duration(o.seconds * 0.5 * float64(time.Second)))
	for n := int64(2); time.Now().Before(end) && ctx.Err() == nil; n += 2 {
		runtime.ReadMemStats(&ms0)
		wall, cpu := op(nil, n, nil, trainConfig())
		runtime.ReadMemStats(&ms1)
		plain, walls = append(plain, ms(cpu)), append(walls, ms(wall))
		gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		_, cpu = op(tr, n+1, func(id int) { buildID = id }, hooked)
		traced = append(traced, ms(cpu))
	}
	rep.set("train.latency_p90_ms", "ms", percentile(plain, 0.90), len(plain))
	rep.set("train.wall_p50_ms", "ms", median(walls), len(walls))
	rep.set("train.runtime.gc_per_op", "count", mean(gcs), len(gcs))
	rep.set("train.runtime.alloc_mb_per_op", "MiB", mean(allocs), len(allocs))
	rep.set("train.trace.overhead_pct", "%", 100*(median(traced)/median(plain)-1), len(traced))

	kids = tr.children()
	var search, share, partition, compile, encode []float64
	for _, id := range tr.named("train.op") {
		var b, c, m int
		for _, k := range kids[id] {
			switch tr.get(k).name {
			case "core.Build":
				b = k
			case "core.Compile":
				c = k
			case "json.Marshal":
				m = k
			}
		}
		if b == 0 || c == 0 || m == 0 {
			continue
		}
		var s time.Duration
		for _, k := range kids[b] {
			s += tr.get(k).dur()
		}
		search = append(search, ms(s))
		share = append(share, float64(s)/float64(tr.get(id).dur()))
		partition = append(partition, ms(tr.selfTime(b, kids)))
		compile = append(compile, ms(tr.selfTime(c, kids)))
		encode = append(encode, ms(tr.selfTime(m, kids)))
	}
	n := len(search)
	calcs := float64(ref.tree.Stats.Search.EntropyCalcs())
	rep.set("split.search_ms", "ms", median(search), n)
	rep.set("split.search_share", "ratio", median(share), n)
	rep.set("split.ns_per_calc", "ns", median(search)*1e6/calcs, n)
	rep.set("core.partition_ms", "ms", median(partition), n)
	rep.set("core.compile_ms", "ms", median(compile), n)
	rep.set("core.json_encode_ms", "ms", median(encode), n)
	if err := checkCompiled(ref, probe); err != nil {
		rep.Failed++
		rep.problem("%v", err)
	}
	return writeTrace(o, "train", tr)
}

// splitNs times PDF.SplitAt at each pdf's median over every pdf of the
// tuples: the median over five passes of the per-call mean.
func splitNs(tuples []*udt.Tuple) float64 {
	var pdfs []*udt.PDF
	var zs []float64
	for _, tu := range tuples {
		for _, p := range tu.Num {
			pdfs = append(pdfs, p)
			zs = append(zs, p.Median())
		}
	}
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i, p := range pdfs {
			l, rt, _ := p.SplitAt(zs[i])
			sinkPDF = l
			sinkPDF = rt
		}
		per = append(per, float64(time.Since(t0))/float64(len(pdfs)))
	}
	return median(per)
}

// sinkPDF keeps SplitAt's results alive so the calls are not optimised out.
var sinkPDF *udt.PDF

var errNoProbes = fmt.Errorf("the traced run needs the perftrace build (run.sh builds it for --trace 1)")

// writeTrace writes the pass's spans as trace-event JSON under o.out.
func writeTrace(o options, workload string, tr *tracer) error {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, o.seed))
	if err := tr.write(path, os.Getpid()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s spans written to %s\n", workload, path)
	return nil
}
