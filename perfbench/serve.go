package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"udt"
)

// Serve constants. BENCHMARK.json's serve entry states the rate and the
// limit too; the self-test keeps the two in step.
const (
	openRate    = 1000.0 // req/s of the fixed-rate open loop, about 1/3 of closed-loop capacity on a quiet host
	kneeP90Ms   = 5.0    // the knee's latency limit on p90, timed from due
	kneeStep    = 0.02   // the knee search stops when its bracket is this narrow
	maxLagShare = 0.5    // an open loop is invalid if pacer lag p99 exceeds this share of its p50
	coldStarts  = 25     // udtserve starts per run; setup_s is their median
)

// Request-id ranges, so every request a server sees has its own id.
const (
	idCold   = 1_000_000_000
	idVerify = 100_000_000
	idWarm   = 200_000_000
	idOpen   = 300_000_000
	idClosed = 400_000_000
	idKnee   = 500_000_000
)

// udtserve is one running server process.
type udtserve struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stdout hits EOF
	stderr  *os.File
}

var servingLine = regexp.MustCompile(`^udtserve: serving .* on (\S+), workers=`)

// startServe execs udtserve on the model with default flags (plus extra)
// on a loopback port and waits for its "serving" line. It returns the time
// taken from exec to that line.
func startServe(o options, model, stderrPath string, extra ...string) (*udtserve, time.Time, time.Duration, error) {
	args := append([]string{"-model", model, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(filepath.Join(o.bin, "udtserve"), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if stderrPath == "" {
		stderrPath = os.DevNull
	}
	errf, err := os.Create(stderrPath)
	if err != nil {
		return nil, time.Time{}, 0, err
	}
	cmd.Stderr = errf
	out, err := cmd.StdoutPipe()
	if err != nil {
		errf.Close()
		return nil, time.Time{}, 0, err
	}
	type ready struct {
		addr string
		at   time.Time
	}
	readyc := make(chan ready, 1)
	s := &udtserve{cmd: cmd, drained: make(chan struct{}), stderr: errf}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		errf.Close()
		return nil, t0, 0, err
	}
	go func() {
		defer close(s.drained)
		defer close(readyc)
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); !found && m != nil {
				found = true
				readyc <- ready{m[1], time.Now()}
			}
		}
	}()
	select {
	case r, ok := <-readyc:
		if !ok {
			s.stop()
			return nil, t0, 0, errors.New("udtserve exited before serving")
		}
		s.addr = r.addr
		return s, t0, r.at.Sub(t0), nil
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, t0, 0, errors.New("udtserve did not report serving within 10s")
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 5 s)
// and reaps it.
func (s *udtserve) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	s.cmd.Wait()
	s.stderr.Close()
	s.cmd.Process = nil
}

// cpuTime is the CPU time the server's threads have used since exec: the
// sum of the first field (time on CPU, ns) of every
// /proc/<pid>/task/<tid>/schedstat. Like the process CPU clock it excludes
// time the hypervisor took (see cpuTime in stats.go).
func (s *udtserve) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			return 0, err
		}
		f := bytes.Fields(b)
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// runtimeStats scrapes the server's /metrics runtime section.
func (s *udtserve) runtimeStats() (gcCycles, gcPauseMicros float64, err error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Runtime struct {
			GCCycles           float64 `json:"gcCycles"`
			GCPauseTotalMicros float64 `json:"gcPauseTotalMicros"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("/metrics: %w", err)
	}
	return doc.Runtime.GCCycles, doc.Runtime.GCPauseTotalMicros, nil
}

// bodyTuple decodes a request body with encoding/json, independently of
// the server's decoder, into the tuple the server should classify.
func bodyTuple(b []byte) (*udt.Tuple, error) {
	var doc struct {
		Num []struct {
			Xs     []float64 `json:"xs"`
			Masses []float64 `json:"masses"`
		} `json:"num"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	tu := &udt.Tuple{Weight: 1}
	for _, v := range doc.Num {
		p, err := udt.NewPDF(v.Xs, v.Masses)
		if err != nil {
			return nil, err
		}
		tu.Num = append(tu.Num, p)
	}
	return tu, nil
}

// verifyServer sends every distinct body once and compares the response
// with the in-process forest: the class and every distribution value, bit
// for bit. It returns the verified response bytes, which the timed legs
// then compare byte for byte.
func verifyServer(addr string, bodies [][]byte, tuples []*udt.Tuple, f *udt.Forest, rep *report) ([][]byte, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	expect := make([][]byte, len(bodies))
	for i, b := range bodies {
		rep.Attempted++
		status, resp, err := c.post(strconv.AppendInt([]byte("pb-"), int64(idVerify+i), 10), b)
		if err != nil {
			return nil, fmt.Errorf("verify body %d: %w", i, err)
		}
		expect[i] = append([]byte(nil), resp...)
		if err := checkResponse(status, resp, f, tuples[i]); err != nil {
			rep.Failed++
			rep.problem("verify body %d: %v", i, err)
		}
	}
	return expect, nil
}

func checkResponse(status int, resp []byte, f *udt.Forest, tu *udt.Tuple) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, resp)
	}
	var got struct {
		Class string             `json:"class"`
		Dist  map[string]float64 `json:"dist"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return err
	}
	want := f.Classify(tu)
	best := 0
	for c, p := range want {
		if p > want[best] {
			best = c
		}
	}
	if got.Class != f.Classes[best] {
		return fmt.Errorf("class %q, in-process forest says %q", got.Class, f.Classes[best])
	}
	if len(got.Dist) != len(want) {
		return fmt.Errorf("%d distribution entries, want %d", len(got.Dist), len(want))
	}
	for c, p := range want {
		if q, ok := got.Dist[f.Classes[c]]; !ok || math.Float64bits(q) != math.Float64bits(p) {
			return fmt.Errorf("dist[%s] = %v, in-process forest says %v", f.Classes[c], q, p)
		}
	}
	return nil
}

// account adds a leg's requests to the report: every request counts as
// attempted, and every one that did not return the verified response (or
// was never sent) as failed.
func account(rep *report, name string, l leg) {
	failed, unsent := l.failures()
	rep.Attempted += len(l.samples)
	rep.Failed += failed + unsent
	if failed+unsent > 0 {
		rep.problem("%s: %d failed, %d unsent: %v", name, failed, unsent, l.errs)
	}
}

// serveInputs is what every serve pass loads before its clock starts.
type serveInputs struct {
	bodies [][]byte
	tuples []*udt.Tuple
	forest *udt.Forest
	model  string
}

func loadServeInputs(o options) (*serveInputs, error) {
	raw, err := os.ReadFile(filepath.Join(o.work, fileBodies))
	if err != nil {
		return nil, err
	}
	in := &serveInputs{model: filepath.Join(o.work, fileForestBin)}
	for _, b := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		tu, err := bodyTuple(b)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", len(in.bodies), err)
		}
		in.bodies = append(in.bodies, b)
		in.tuples = append(in.tuples, tu)
	}
	rawForest, err := os.ReadFile(filepath.Join(o.work, fileForestJSON))
	if err != nil {
		return nil, err
	}
	in.forest, err = loadForest(rawForest)
	return in, err
}

// coldStart execs a server and times exec → "serving" line and exec →
// first 200 from /classify, and reads the CPU time the server used up to
// that first 200.
func coldStart(o options, in *serveInputs, k int, stderrPath string, extra ...string) (s *udtserve, ready, first, cpu time.Duration, err error) {
	s, t0, ready, err := startServe(o, in.model, stderrPath, extra...)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	c, err := dial(s.addr)
	if err == nil {
		defer c.close()
		var status int
		var resp []byte
		status, resp, err = c.post(strconv.AppendInt([]byte("pb-"), int64(idCold+k), 10), in.bodies[0])
		first = time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("first /classify: status %d: %.200s", status, resp)
		}
	}
	if err == nil {
		cpu, err = s.cpuTime()
	}
	if err != nil {
		s.stop()
		return nil, 0, 0, 0, err
	}
	return s, ready, first, cpu, nil
}

func runServe(ctx context.Context, o options) (*report, error) {
	rep := newReport("serve")
	in, err := loadServeInputs(o)
	if err != nil {
		return rep, err
	}
	conns := runtime.NumCPU()
	rep.count("model.nodes", int64(in.forest.Stats().Nodes))
	fi, err := os.Stat(in.model)
	if err != nil {
		return rep, err
	}
	rep.Counters["model.container_bytes"] = fi.Size()
	rep.set("model.container_bytes", "bytes", float64(fi.Size()), 1)

	// Set-up: cold starts; the last server stays up for the timed legs.
	// setup_s is the server's CPU time from exec to its first 200, which the
	// host's other tenants and the wake-up latency of an idle vCPU do not
	// move; the wall time of the same interval is serve.first_classify_ms.
	var readies, firsts, cpus []float64
	var srv *udtserve
	defer func() { srv.stop() }()
	for k := 0; k < coldStarts; k++ {
		s, ready, first, cpu, err := coldStart(o, in, k, "")
		rep.Attempted++
		if err != nil {
			return rep, fmt.Errorf("cold start %d: %w", k, err)
		}
		readies, firsts = append(readies, ms(ready)), append(firsts, ms(first))
		cpus = append(cpus, cpu.Seconds())
		if k < coldStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	expect, err := verifyServer(srv.addr, in.bodies, in.tuples, in.forest, rep)
	if err != nil {
		return rep, err
	}
	base := loadSpec{addr: srv.addr, bodies: in.bodies, expect: expect, conns: conns, giveUp: 10 * time.Second}
	warm := base
	warm.idBase, warm.dur = idWarm, time.Second
	account(rep, "warm-up", warm.run())

	if o.trace {
		return rep, traceServe(ctx, o, rep, in, srv, base, readies, firsts)
	}

	// The gated figures come from the closed loop: it keeps the CPUs busy
	// and adapts to the capacity of the moment. The fixed-rate open loop,
	// the knee and the tail are in the traced run: on a shared VM whose
	// capacity halves for minutes at a time, 1000 req/s backs up (p50 read
	// 1.1 to 275 ms between runs of identical code) and lower rates measure
	// how late the hypervisor wakes an idle vCPU. Throughput is verified
	// responses per second of the server's CPU time (all its threads, so
	// GC work outside request windows counts): per elapsed second it moved
	// from 1,200 to 3,200 req/s between runs of identical code as the
	// hypervisor's share of the box changed. The elapsed-time figure is
	// kept in the report as serve.elapsed_throughput_per_s.
	closed := base
	closed.idBase, closed.dur = idClosed, time.Duration(o.seconds*float64(time.Second))
	closed.start = time.Now().Add(5 * time.Millisecond)
	var rssErr error
	peaks := atBoundaries(closed.start, closed.dur, peakRSSReader(strconv.Itoa(srv.cmd.Process.Pid), &rssErr))
	cpu0, err := srv.cpuTime()
	if err != nil {
		return rep, fmt.Errorf("server CPU time: %w", err)
	}
	cl := closed.run()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return rep, fmt.Errorf("server CPU time: %w", err)
	}
	account(rep, "closed loop", cl)
	rss := median((<-peaks)[1:])
	if rssErr != nil {
		return rep, fmt.Errorf("server peak RSS: %w", rssErr)
	}
	thr, p50, _, p50s := cl.segmentStats(closed.dur, (cpu1 - cpu0).Seconds())
	rep.slices("latency_p50_ms", p50s)
	elapsedThr, _, _, _ := cl.segmentStats(closed.dur, 0)
	rep.set("setup_s", "s", median(cpus), len(cpus))
	rep.set("throughput_per_s", "1/s", thr, len(cl.samples))
	rep.set("latency_p50_ms", "ms", p50, len(cl.samples))
	rep.set("peak_rss_mb", "MiB", rss, segments)
	rep.set("serve.elapsed_throughput_per_s", "1/s", elapsedThr, len(cl.samples))
	rep.set("serve.first_classify_ms", "ms", median(firsts), len(firsts))
	return rep, nil
}

// checkLag marks an open loop invalid when the pacer itself ran late: the
// median over the leg's time slices of the pacer-lag p99 exceeds
// maxLagShare of the latency p50, so the loop measured the generator (or
// the host waking it), not the server. The mark is printed and kept in the
// report; it does not fail the run, since every response was still
// checked.
func checkLag(rep *report, l leg, window time.Duration, p50ms float64) {
	at := make([]time.Duration, len(l.samples))
	for i, s := range l.samples {
		at[i] = s.due
	}
	lag99 := segmentPercentile(at, l.lagsUs(), window, 0.99)
	if lag99 > maxLagShare*p50ms*1e3 {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("open loop: pacer lag p99 %.0f µs exceeds %.0f%% of latency p50 %.3f ms",
			lag99, 100*maxLagShare, p50ms))
	}
}

// kneeSearch bisects for the highest open-loop rate whose p90, timed from
// due, stays within kneeP90Ms while completions keep up with arrivals (the
// last tenth of requests also has its median within the limit, and none is
// left unsent). A rate that fails is probed once more, so one short stall
// cannot decide it.
func kneeSearch(rep *report, base loadSpec, capacity float64, probeDur time.Duration) (float64, int) {
	probesRun := 0
	pass := func(rate float64) bool {
		for attempt := 0; attempt < 2; attempt++ {
			s := base
			s.idBase, s.rate, s.dur, s.giveUp = idKnee+int64(probesRun)*1_000_000, rate, probeDur, 200*time.Millisecond
			probesRun++
			l := s.run()
			failed, unsent := l.failures()
			rep.Attempted += len(l.samples) - unsent
			rep.Failed += failed
			if failed > 0 {
				rep.problem("knee probe at %.0f/s: %d failed: %v", rate, failed, l.errs)
			}
			lat := l.latencies()
			tail := lat[len(lat)*9/10:]
			if unsent == 0 && percentile(lat, 0.90) <= kneeP90Ms && median(tail) <= kneeP90Ms {
				return true
			}
			time.Sleep(50 * time.Millisecond)
		}
		return false
	}
	lo, hi := 0.25*capacity, 1.1*capacity
	for !pass(lo) {
		if lo < 50 {
			return 0, probesRun
		}
		hi, lo = lo, lo/2
	}
	for (hi-lo)/lo > kneeStep {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probesRun
}

// accessRecord is one udtserve access-log line (-trace-sample 1).
type accessRecord struct {
	Msg            string  `json:"msg"`
	RequestID      string  `json:"requestId"`
	TotalMicros    float64 `json:"totalMicros"`
	DecodeMicros   float64 `json:"decodeMicros"`
	ClassifyMicros float64 `json:"classifyMicros"`
	EncodeMicros   float64 `json:"encodeMicros"`
}

func readAccessLog(path string) (map[string]accessRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs := map[string]accessRecord{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var r accessRecord
		if json.Unmarshal(line, &r) == nil && r.Msg == "request" && r.RequestID != "" {
			recs[r.RequestID] = r
		}
	}
	return recs, nil
}

// traceServe is the traced serve pass. On the untraced server (default
// flags) it records the runtime counters around a fixed-rate open loop,
// the open-loop tail and the load generator's validity figures, a closed-loop
// baseline and the knee. It then starts a server with -trace-sample 1,
// repeats the open and closed loops with request ids, joins each client
// span with the server's access-log record, and probes wire decode.
func traceServe(ctx context.Context, o options, rep *report, in *serveInputs, srv *udtserve, base loadSpec, readies, firsts []float64) error {
	if probes == nil {
		return errNoProbes
	}
	rep.set("serve.ready_ms", "ms", median(readies), len(readies))
	rep.set("serve.first_classify_ms", "ms", median(firsts), len(firsts))
	secs := time.Duration(o.seconds * float64(time.Second))

	gc0, pause0, err := srv.runtimeStats()
	if err != nil {
		return err
	}
	open := base
	open.idBase, open.rate, open.dur = idOpen, openRate, secs*3/10
	ol := open.run()
	account(rep, "open loop", ol)
	gc1, pause1, err := srv.runtimeStats()
	if err != nil {
		return err
	}
	n := float64(len(ol.samples))
	lat := ol.latencies()
	_, p50, p90, _ := ol.segmentStats(open.dur, 0)
	checkLag(rep, ol, open.dur, p50)
	rep.set("serve.open_p50_ms", "ms", p50, len(lat))
	rep.set("serve.open_p90_ms", "ms", p90, len(lat))
	rep.set("serve.gc_per_1k_req", "count", (gc1-gc0)/n*1000, len(ol.samples))
	rep.set("serve.gc_pause_us_per_req", "us", (pause1-pause0)/n, len(ol.samples))
	rep.set("serve.open_p99_ms", "ms", percentile(lat, 0.99), len(lat))
	rep.set("serve.open_requests", "count", n, len(lat))
	lags := ol.lagsUs()
	rep.set("driver.lag_us_p50", "us", median(lags), len(lags))
	rep.set("driver.lag_us_p99", "us", percentile(lags, 0.99), len(lags))
	rep.set("serve.conn_wait_us", "us", ol.connWaitUs(), len(ol.samples))

	closed := base
	closed.idBase, closed.dur = idClosed, secs*15/100
	cl := closed.run()
	account(rep, "closed loop", cl)
	plainThr := float64(len(cl.samples)) / cl.elapsed.Seconds()
	_, _, p90, _ = cl.segmentStats(closed.dur, 0)
	rep.set("serve.latency_p90_ms", "ms", p90, len(cl.samples))
	rep.set("serve.elapsed_throughput_per_s", "1/s", plainThr, len(cl.samples))

	probeDur := max(secs/20, 500*time.Millisecond)
	knee, kneeProbes := kneeSearch(rep, base, plainThr, probeDur)
	rep.set("serve.knee_qps", "1/s", knee, kneeProbes)
	srv.stop()
	if ctx.Err() != nil {
		return ctx.Err()
	}

	// The traced server: every request sampled into the access log.
	logPath := filepath.Join(o.work, "access.log")
	tsrv, _, _, _, err := coldStart(o, in, coldStarts, logPath, "-trace-sample", "1")
	if err != nil {
		return fmt.Errorf("traced server: %w", err)
	}
	defer tsrv.stop()
	texpect, err := verifyServer(tsrv.addr, in.bodies, in.tuples, in.forest, rep)
	if err != nil {
		return err
	}
	for i := range texpect {
		if !bytes.Equal(texpect[i], base.expect[i]) {
			rep.Failed++
			rep.problem("body %d: the traced server's response differs from the untraced one", i)
		}
	}
	tbase := base
	tbase.addr = tsrv.addr
	warm := tbase
	warm.idBase, warm.dur = idWarm, secs/40
	account(rep, "traced warm-up", warm.run())
	topen := tbase
	topen.idBase, topen.rate, topen.dur = idOpen, openRate, secs/4
	tol := topen.run()
	account(rep, "traced open loop", tol)
	tclosed := tbase
	tclosed.idBase, tclosed.dur = idClosed, secs*15/100
	tcl := tclosed.run()
	account(rep, "traced closed loop", tcl)
	tracedThr := float64(len(tcl.samples)) / tcl.elapsed.Seconds()
	rep.set("serve.trace.overhead_pct", "%", 100*(plainThr/tracedThr-1), len(tcl.samples))
	tsrv.stop()

	recs, err := readAccessLog(logPath)
	if err != nil {
		return err
	}
	tr := newTracer()
	var server, decode, classify, encode, middleware, net []float64
	sent := 0
	for _, s := range tol.samples {
		if !s.ok {
			continue
		}
		sent++
		at := func(d time.Duration) time.Time { return tol.start.Add(d) }
		root := tr.add("client.request", 0, s.id, at(s.due), at(s.done))
		tr.annotate(root, "conn", s.conn)
		if s.picked > s.due {
			w := tr.add("conn.wait", root, s.id, at(s.due), at(s.picked))
			tr.annotate(w, "conn", s.conn)
		}
		rt := tr.add("http.roundtrip", root, s.id, at(s.sent), at(s.done))
		tr.annotate(rt, "conn", s.conn)
		r, ok := recs["pb-"+strconv.FormatInt(s.id, 10)]
		if !ok {
			continue
		}
		tr.annotate(rt, "server_us", r.TotalMicros)
		tr.annotate(rt, "decode_us", r.DecodeMicros)
		tr.annotate(rt, "classify_us", r.ClassifyMicros)
		tr.annotate(rt, "encode_us", r.EncodeMicros)
		server = append(server, r.TotalMicros)
		decode = append(decode, r.DecodeMicros)
		classify = append(classify, r.ClassifyMicros)
		encode = append(encode, r.EncodeMicros)
		middleware = append(middleware, r.TotalMicros-r.DecodeMicros-r.ClassifyMicros-r.EncodeMicros)
		net = append(net, float64(s.done-s.sent)/1e3-r.TotalMicros)
	}
	j := len(server)
	// The access log has whole microseconds, so its spans are reported as
	// means: a median of integers would read the same on every run.
	rep.set("serve.server_us", "us", mean(server), j)
	rep.set("serve.decode_us", "us", mean(decode), j)
	rep.set("serve.classify_us", "us", mean(classify), j)
	rep.set("serve.encode_us", "us", mean(encode), j)
	rep.set("serve.middleware_us", "us", mean(middleware), j)
	rep.set("serve.net_us", "us", median(net), j)
	rep.set("serve.trace_join_share", "ratio", float64(j)/float64(max(sent, 1)), sent)

	// Wire decode in-process on the same bodies.
	decodeAll, err := probes.wireDecoder(in.bodies, in.forest)
	if err != nil {
		return err
	}
	if err := decodeAll(); err != nil {
		return fmt.Errorf("wire decode: %w", err)
	}
	var per []float64
	for r := 0; r < 9; r++ {
		t0 := time.Now()
		decodeAll()
		per = append(per, float64(time.Since(t0))/1e3/float64(len(in.bodies)))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decodeAll()
	runtime.ReadMemStats(&m1)
	rep.set("wire.decode_us_per_tuple", "us", median(per), len(per))
	rep.set("wire.allocs_per_tuple", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(in.bodies)), len(in.bodies))
	return writeTrace(o, "serve", tr)
}
