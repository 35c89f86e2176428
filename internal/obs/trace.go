// Package obs is the serving and training observability layer: per-request
// traces with decode/classify/encode spans, the HTTP middleware that samples
// and records them, the metric inventory (Export) from which one
// declaration renders both /metrics dialects, the Prometheus text format
// (writer and strict parser), process runtime metrics, and the
// ProgressHook that instruments tree, forest and boosted training.
//
// The package is stdlib-only (plus internal/latency, whose power-of-two
// buckets every histogram in the repo shares) and imports nothing from the
// model layers, so core, forest and boost can depend on it without cycles.
package obs

import (
	"context"
	"time"
)

// SpanKind names one timed phase of a request. The three kinds cover the
// classify pipeline: decode (body + tuple decoding), classify (model
// evaluation), encode (response rendering).
type SpanKind uint8

const (
	SpanDecode SpanKind = iota
	SpanClassify
	SpanEncode
	// NumSpans sizes per-span arrays; not a valid kind.
	NumSpans
)

// String returns the span's wire name, used as the Prometheus span label and
// the access-log field prefix.
func (k SpanKind) String() string {
	switch k {
	case SpanDecode:
		return "decode"
	case SpanClassify:
		return "classify"
	case SpanEncode:
		return "encode"
	}
	return "unknown"
}

// Trace accumulates the timed spans of one sampled request. All methods are
// nil-receiver safe, so handlers call them unconditionally and untraced
// requests pay only the nil check — tracing is free when disabled. A span
// kind may Begin/End several times (the stream endpoint times every line);
// the nanos accumulate. A span left open when the request finishes is
// discarded, never guessed at.
//
// A Trace is owned by one request at a time and is not safe for concurrent
// use; the middleware pools instances across requests.
type Trace struct {
	// ID is the request's X-Request-Id, echoed into the access log.
	ID string

	mark    [NumSpans]time.Time
	nanos   [NumSpans]int64
	tuples  int
	members int
}

// Begin opens (or re-opens) the span.
//
//udt:hotpath
func (t *Trace) Begin(k SpanKind) {
	if t == nil {
		return
	}
	t.mark[k] = time.Now()
}

// End closes the span, folding the elapsed time into the span's total. An
// End without a matching Begin is ignored.
//
//udt:hotpath
func (t *Trace) End(k SpanKind) {
	if t == nil {
		return
	}
	if m := t.mark[k]; !m.IsZero() {
		t.nanos[k] += time.Since(m).Nanoseconds()
		t.mark[k] = time.Time{}
	}
}

// AddTuples counts tuples classified under this request.
//
//udt:hotpath
func (t *Trace) AddTuples(n int) {
	if t == nil {
		return
	}
	t.tuples += n
}

// AddMembers counts ensemble members evaluated under this request
// (early-exit mode).
//
//udt:hotpath
func (t *Trace) AddMembers(n int) {
	if t == nil {
		return
	}
	t.members += n
}

// SpanNanos returns the accumulated time of one span kind.
func (t *Trace) SpanNanos(k SpanKind) int64 {
	if t == nil {
		return 0
	}
	return t.nanos[k]
}

// Tuples returns the tuple count recorded by AddTuples.
func (t *Trace) Tuples() int {
	if t == nil {
		return 0
	}
	return t.tuples
}

// Members returns the member count recorded by AddMembers.
func (t *Trace) Members() int {
	if t == nil {
		return 0
	}
	return t.members
}

// reset clears the trace for reuse from the pool.
func (t *Trace) reset() {
	*t = Trace{}
}

// traceKey is the context key under which the middleware stores the request's
// Trace.
type traceKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the request's Trace, or nil when the request is not
// sampled — the nil is usable directly (all Trace methods accept it).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
