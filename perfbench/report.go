package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by every workload's
// untraced run; BENCHMARK.json's end_to_end list mirrors it (the self-test
// checks that).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what the traced run reports: one traced pass of every
// workload, so each per-layer metric keeps one name whichever workload
// --workload names. BENCHMARK.json's per_layer list mirrors it.
var perLayer = []metricDef{
	// train: data, split, core, runtime
	{"train.data.csv_parse_ms", "ms"},
	{"split.search_ms", "ms"},
	{"split.search_share", "ratio"},
	{"split.entropy_calcs", "count"},
	{"split.ns_per_calc", "ns"},
	{"split.root_ms.udt", "ms"},
	{"split.root_ms.bp", "ms"},
	{"split.root_ms.lp", "ms"},
	{"split.root_ms.gp", "ms"},
	{"split.root_ms.es", "ms"},
	{"split.root_calcs.udt", "count"},
	{"split.root_calcs.bp", "count"},
	{"split.root_calcs.lp", "count"},
	{"split.root_calcs.gp", "count"},
	{"split.root_calcs.es", "count"},
	{"core.partition_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.json_encode_ms", "ms"},
	{"core.nodes", "count"},
	{"core.depth", "count"},
	{"train.pdf.split_ns", "ns"},
	{"train.latency_p90_ms", "ms"},
	{"train.wall_p50_ms", "ms"},
	{"train.runtime.gc_per_op", "count"},
	{"train.runtime.alloc_mb_per_op", "MiB"},
	{"train.trace.overhead_pct", "%"},
	// score: data, forest, par, compiled descent, pdf, runtime
	{"score.data.csv_parse_ms", "ms"},
	{"forest.json_load_ms", "ms"},
	{"forest.ns_per_tuple.serial", "ns"},
	{"forest.ns_per_tuple.parallel", "ns"},
	{"forest.parallel_eff", "ratio"},
	{"core.descent_ns_per_tuple", "ns"},
	{"core.allocs_per_tuple", "count"},
	{"score.pdf.split_ns", "ns"},
	{"score.latency_p90_ms", "ms"},
	{"score.latency_p99_ms", "ms"},
	{"score.wall_p50_ms", "ms"},
	{"score.runtime.gc_per_op", "count"},
	{"score.runtime.alloc_mb_per_op", "MiB"},
	{"score.trace.overhead_pct", "%"},
	// the prepared model (binfmt container)
	{"model.nodes", "count"},
	{"model.container_bytes", "bytes"},
	// serve: udtserve start, handler spans, middleware, net, wire decode,
	// runtime, load-generator validity, the closed-loop tail, the
	// fixed-rate open loop and the knee
	{"serve.ready_ms", "ms"},
	{"serve.first_classify_ms", "ms"},
	{"serve.server_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.classify_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.middleware_us", "us"},
	{"serve.net_us", "us"},
	{"serve.trace_join_share", "ratio"},
	{"wire.decode_us_per_tuple", "us"},
	{"wire.allocs_per_tuple", "count"},
	{"serve.gc_per_1k_req", "count"},
	{"serve.gc_pause_us_per_req", "us"},
	{"serve.conn_wait_us", "us"},
	{"driver.lag_us_p50", "us"},
	{"driver.lag_us_p99", "us"},
	{"serve.latency_p90_ms", "ms"},
	{"serve.elapsed_throughput_per_s", "1/s"},
	{"serve.open_p50_ms", "ms"},
	{"serve.open_p90_ms", "ms"},
	{"serve.open_p99_ms", "ms"},
	{"serve.open_requests", "count"},
	{"serve.knee_qps", "1/s"},
	{"serve.trace.overhead_pct", "%"},
	// the host: CPU time taken by the hypervisor during each traced pass
	{"host.steal_pct.train", "%"},
	{"host.steal_pct.score", "%"},
	{"host.steal_pct.serve", "%"},
}

// metric is one measured value with its unit and the number of samples it
// summarises.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is what one workload pass hands back: metrics, the exact counters
// and input digests that must repeat, and every failed check.
type report struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Invalid   []string          `json:"invalid,omitempty"` // measurements the load generator itself may have skewed
	Metrics   map[string]metric `json:"metrics"`
	Counters  map[string]int64  `json:"counters"`
	Digests   map[string]string `json:"digests,omitempty"`
	// Slices holds the per-slice values behind a sliced metric, in time
	// order, so a reader can see how the run moved.
	Slices map[string][]float64 `json:"slices,omitempty"`
}

func newReport(workload string) *report {
	return &report{
		Workload: workload,
		Metrics:  map[string]metric{},
		Counters: map[string]int64{},
		Digests:  map[string]string{},
	}
}

func (r *report) set(name, unit string, v float64, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// slices records the per-slice values behind metric name.
func (r *report) slices(name string, vs []float64) {
	if r.Slices == nil {
		r.Slices = map[string][]float64{}
	}
	r.Slices[name] = vs
}

// count records an exact counter both as a counter and as a metric.
func (r *report) count(name string, v int64) {
	r.Counters[name] = v
	r.set(name, "count", float64(v), 1)
}

// problem records a failed check. It does not count an operation; callers
// that lose an operation also bump Failed.
func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// merge folds another pass's report into r.
func (r *report) merge(o *report) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, p := range o.Problems {
		r.Problems = append(r.Problems, o.Workload+": "+p)
	}
	for _, p := range o.Invalid {
		r.Invalid = append(r.Invalid, o.Workload+": "+p)
	}
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	for k, v := range o.Counters {
		r.Counters[k] = v
	}
	for k, v := range o.Digests {
		r.Digests[k] = v
	}
	for k, v := range o.Slices {
		if r.Slices == nil {
			r.Slices = map[string][]float64{}
		}
		r.Slices[k] = v
	}
}

// checkCatalog records a problem for every catalogued metric the report
// lacks or reports with another unit, and for any non-finite value.
func (r *report) checkCatalog(defs []metricDef) {
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			r.problem("metric %s missing", d.name)
		case m.Unit != d.unit:
			r.problem("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300:
			r.problem("metric %s is not finite: %v", d.name, m.Value)
		}
	}
}

// resultLine renders the last line of standard output: exactly correct, attempted,
// failed and the catalogued metrics as {value, unit}.
func (r *report) resultLine(defs []metricDef) ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(defs))
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			ms[d.name] = vu{m.Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.ok(), r.Attempted, r.Failed, ms})
}

func (r *report) ok() bool { return r.Failed == 0 && len(r.Problems) == 0 && r.Attempted > 0 }

// summary renders the report for a human: one line per metric, sorted,
// with its unit and sample count, then every problem and invalid mark.
func (r *report) summary() string {
	var b strings.Builder
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(&b, "  %-32s %14.6g %-6s (n=%d)\n", k, m.Value, m.Unit, m.Samples)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  PROBLEM: %s\n", p)
	}
	for _, p := range r.Invalid {
		fmt.Fprintf(&b, "  INVALID: %s\n", p)
	}
	return b.String()
}
