package loadgen

import (
	"encoding/json"
	"fmt"

	"udt/internal/latency"
)

// SchemaVersion identifies the report layout. Reports are only comparable
// when their versions match, so bump this whenever a field changes meaning.
const SchemaVersion = 1

// Mix is the request-class mix as relative weights (they need not sum to 1;
// Run normalizes). A zero weight disables the class.
type Mix struct {
	Single float64 `json:"single"`
	Batch  float64 `json:"batch"`
	Stream float64 `json:"stream"`
}

func (m Mix) total() float64 { return m.Single + m.Batch + m.Stream }

// RunConfig echoes the generator settings into the report so a saved
// report is self-describing.
type RunConfig struct {
	QPS             float64            `json:"qps"`
	DurationSeconds float64            `json:"durationSeconds"`
	Seed            int64              `json:"seed"`
	Mix             Mix                `json:"mix"`
	Models          map[string]float64 `json:"models,omitempty"` // per-model weights; empty = legacy routes
	BatchSize       int                `json:"batchSize"`
	StreamLines     int                `json:"streamLines"`
}

// Counts aggregates request outcomes. Sent = OK + Errors + Rejected; Dropped
// requests were never sent (the in-flight cap was hit at their arrival time).
type Counts struct {
	Sent     int64 `json:"sent"`
	OK       int64 `json:"ok"`
	Errors   int64 `json:"errors"`   // transport failures and non-2xx other than 503
	Rejected int64 `json:"rejected"` // 503 admission rejections
	Dropped  int64 `json:"dropped"`
}

// Summary is a client-side latency digest for one request class (or "all").
// Percentiles are nearest-rank over the exact per-request durations, not
// bucket approximations.
type Summary struct {
	Count      int64 `json:"count"`
	MeanMicros int64 `json:"meanMicros"`
	P50Micros  int64 `json:"p50Micros"`
	P95Micros  int64 `json:"p95Micros"`
	P99Micros  int64 `json:"p99Micros"`
	MaxMicros  int64 `json:"maxMicros"`
}

// EarlyExitDelta is the growth of the server's early-exit counters over the
// run window.
type EarlyExitDelta struct {
	Predictions      int64 `json:"predictions"`
	MembersEvaluated int64 `json:"membersEvaluated"`
}

// ServerDelta is the server's own view of the run: /metrics sampled before
// and after, subtracted.
type ServerDelta struct {
	TuplesClassified int64             `json:"tuplesClassified"`
	EarlyExit        *EarlyExitDelta   `json:"earlyExit,omitempty"`
	ClassifyLatency  *latency.Snapshot `json:"classifyLatency,omitempty"`
}

// RuntimeDelta is the growth of the server's runtime metrics over the run
// window, from the /metrics "runtime" section. Heap and goroutine deltas may
// be negative (GC and handler teardown shrink both); GC cycle and pause
// totals are monotonic counters, so their deltas must not be.
type RuntimeDelta struct {
	HeapAllocBytesDelta int64 `json:"heapAllocBytesDelta"`
	HeapObjectsDelta    int64 `json:"heapObjectsDelta"`
	GoroutinesDelta     int64 `json:"goroutinesDelta"`
	GCCycles            int64 `json:"gcCycles"`
	GCPauseTotalMicros  int64 `json:"gcPauseTotalMicros"`
}

// CrossCheck compares the client-side p95 for /classify requests against the
// server's classify-endpoint histogram delta. The two are bucketed with the
// same internal/latency geometry; BucketDistance is how many power-of-two
// buckets apart the two p95s landed (client-side overhead — connection
// handling, JSON decode on the client — should keep them within a bucket of
// each other on a loopback run).
type CrossCheck struct {
	ClientP95Micros   int64 `json:"clientP95Micros"`
	ServerP95LoMicros int64 `json:"serverP95LoMicros"`
	ServerP95HiMicros int64 `json:"serverP95HiMicros"` // -1 = overflow bucket
	BucketDistance    int   `json:"bucketDistance"`
	WithinOneBucket   bool  `json:"withinOneBucket"`
}

// Report is the machine-readable result of one load run. Latency keys are
// the request classes ("single", "batch", "stream"), "all", and — when the
// run used a per-model mix — "model:{name}" per model.
type Report struct {
	SchemaVersion int                 `json:"schemaVersion"`
	Target        string              `json:"target"`
	Targets       []string            `json:"targets,omitempty"` // multi-target fan-out set, when used
	Config        RunConfig           `json:"config"`
	Requests      Counts              `json:"requests"`
	OfferedQPS    float64             `json:"offeredQPS"`
	AchievedQPS   float64             `json:"achievedQPS"`
	Latency       map[string]*Summary `json:"latency"`
	Server        *ServerDelta        `json:"server,omitempty"`
	ServerRuntime *RuntimeDelta       `json:"serverRuntime,omitempty"`
	CrossCheck    *CrossCheck         `json:"crossCheck,omitempty"`
}

// DecodeReport parses and validates a report produced by Run. It rejects
// unknown schema versions, negative counts, inconsistent outcome totals, and
// non-monotonic percentiles, so CI trend tooling can trust any report that
// decodes. Never panics on malformed input (fuzzed).
func DecodeReport(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("loadgen: decode report: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("loadgen: report schema version %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	c := r.Requests
	if c.Sent < 0 || c.OK < 0 || c.Errors < 0 || c.Rejected < 0 || c.Dropped < 0 {
		return nil, fmt.Errorf("loadgen: negative request counts %+v", c)
	}
	if c.OK+c.Errors+c.Rejected != c.Sent {
		return nil, fmt.Errorf("loadgen: outcomes %d+%d+%d do not sum to sent %d", c.OK, c.Errors, c.Rejected, c.Sent)
	}
	if r.OfferedQPS < 0 || r.AchievedQPS < 0 {
		return nil, fmt.Errorf("loadgen: negative QPS (offered %g, achieved %g)", r.OfferedQPS, r.AchievedQPS)
	}
	for class, s := range r.Latency {
		if s == nil {
			return nil, fmt.Errorf("loadgen: latency class %q is null", class)
		}
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("loadgen: latency class %q: %w", class, err)
		}
	}
	if srv := r.Server; srv != nil {
		if srv.TuplesClassified < 0 {
			return nil, fmt.Errorf("loadgen: negative server tuple delta %d", srv.TuplesClassified)
		}
		if ee := srv.EarlyExit; ee != nil && (ee.Predictions < 0 || ee.MembersEvaluated < 0) {
			return nil, fmt.Errorf("loadgen: negative early-exit delta %+v", *ee)
		}
		if srv.ClassifyLatency != nil {
			if err := srv.ClassifyLatency.Validate(); err != nil {
				return nil, fmt.Errorf("loadgen: server classify histogram: %w", err)
			}
		}
	}
	if rt := r.ServerRuntime; rt != nil {
		// Heap and goroutine deltas are legitimately negative; the GC
		// counters are monotonic, so a negative delta means a bad report.
		if rt.GCCycles < 0 || rt.GCPauseTotalMicros < 0 {
			return nil, fmt.Errorf("loadgen: server runtime GC counters went backwards %+v", *rt)
		}
	}
	return &r, nil
}

func (s *Summary) validate() error {
	if s.Count < 0 {
		return fmt.Errorf("negative count %d", s.Count)
	}
	if s.Count == 0 {
		return nil
	}
	if s.MeanMicros < 0 {
		return fmt.Errorf("negative mean %dµs", s.MeanMicros)
	}
	if s.P50Micros < 0 || s.P50Micros > s.P95Micros || s.P95Micros > s.P99Micros || s.P99Micros > s.MaxMicros {
		return fmt.Errorf("percentiles not monotonic: p50=%d p95=%d p99=%d max=%d",
			s.P50Micros, s.P95Micros, s.P99Micros, s.MaxMicros)
	}
	return nil
}
