package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udt/internal/latency"
)

// EndpointMetrics counts one endpoint's traffic with plain atomics, plus a
// power-of-two latency histogram so operators get percentile bounds, not
// just the average.
type EndpointMetrics struct {
	Requests atomic.Int64
	Errors   atomic.Int64 // responses with status >= 400
	Nanos    atomic.Int64 // total handler latency
	Hist     latency.AtomicHist
}

// Observe records one finished request.
func (e *EndpointMetrics) Observe(elapsed time.Duration, status int) {
	e.Requests.Add(1)
	e.Nanos.Add(elapsed.Nanoseconds())
	e.Hist.Observe(elapsed)
	if status >= 400 {
		e.Errors.Add(1)
	}
}

// Middleware is the per-request plumbing shared by every endpoint: request
// IDs, Accept negotiation, status/latency accounting into an
// EndpointMetrics, and deterministically sampled request traces.
//
// The zero value is a working middleware with tracing disabled.
type Middleware struct {
	// SampleEvery traces every Nth request (the 1st, N+1st, ...) across all
	// wrapped endpoints; 0 disables tracing entirely. Deterministic by
	// arrival order, so a test serving exactly one request with SampleEvery
	// 1 always traces it.
	SampleEvery int

	// Log, when non-nil, receives one structured access-log record per
	// sampled request.
	Log *slog.Logger

	seq     atomic.Uint64
	sampled atomic.Int64

	spanNanos [NumSpans]atomic.Int64
	spanHist  [NumSpans]latency.AtomicHist

	pool sync.Pool
}

// Wrap instruments a handler: an X-Request-Id echoed (or generated) before
// the handler runs, Accept-header negotiation against the endpoint's
// producible content types (any match admits the request), request/error/
// latency accounting into em, and — for sampled requests — a Trace in the
// request context whose spans land in the middleware's per-span histograms
// and access log.
func (m *Middleware) Wrap(endpoint string, em *EndpointMetrics, ctypes []string, h http.HandlerFunc) http.HandlerFunc {
	return m.WrapModel(endpoint, em, nil, ctypes, h)
}

// WrapModel is Wrap with a second, per-request metrics dimension: per
// resolves the request to an additional EndpointMetrics — in practice a
// model registry entry's counters, making per-model accounting one label
// away from the endpoint accounting — and both receive the identical
// Observe(elapsed, status). A nil per, or a per returning nil (model not
// resolvable), degrades to plain Wrap. per runs before the handler, so it
// must not consume the request body.
func (m *Middleware) WrapModel(endpoint string, em *EndpointMetrics, per func(*http.Request) *EndpointMetrics, ctypes []string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := RequestID(r)
		w.Header().Set("X-Request-Id", id)
		rec := &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		var pm *EndpointMetrics
		if per != nil {
			pm = per(r)
		}

		var tr *Trace
		if n := m.SampleEvery; n > 0 && (m.seq.Add(1)-1)%uint64(n) == 0 {
			v, _ := m.pool.Get().(*Trace)
			if v == nil {
				v = new(Trace)
			}
			v.reset()
			v.ID = id
			tr = v
			r = r.WithContext(WithTrace(r.Context(), tr))
		}

		if acceptsAny(r.Header.Values("Accept"), ctypes) {
			h(rec, r)
		} else {
			Fail(rec, http.StatusNotAcceptable,
				fmt.Errorf("Accept %q cannot be satisfied: this endpoint produces %s",
					strings.Join(r.Header.Values("Accept"), ", "), strings.Join(ctypes, " or ")))
		}

		elapsed := time.Since(start)
		em.Observe(elapsed, rec.Status)
		if pm != nil {
			pm.Observe(elapsed, rec.Status)
		}
		if tr != nil {
			m.finish(endpoint, r, tr, rec.Status, elapsed)
			m.pool.Put(tr)
		}
	}
}

// finish folds a sampled request's spans into the middleware's histograms
// and emits the access-log record.
func (m *Middleware) finish(endpoint string, r *http.Request, tr *Trace, status int, elapsed time.Duration) {
	m.sampled.Add(1)
	for k := SpanKind(0); k < NumSpans; k++ {
		if ns := tr.nanos[k]; ns > 0 {
			m.spanNanos[k].Add(ns)
			m.spanHist[k].Observe(time.Duration(ns))
		}
	}
	if m.Log == nil {
		return
	}
	m.Log.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("requestId", tr.ID),
		slog.String("endpoint", endpoint),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Int64("totalMicros", elapsed.Microseconds()),
		slog.Int64("decodeMicros", tr.nanos[SpanDecode]/1e3),
		slog.Int64("classifyMicros", tr.nanos[SpanClassify]/1e3),
		slog.Int64("encodeMicros", tr.nanos[SpanEncode]/1e3),
		slog.Int("tuples", tr.tuples),
		slog.Int("members", tr.members),
	)
}

// Sampled returns the number of requests traced so far.
func (m *Middleware) Sampled() int64 { return m.sampled.Load() }

// SpanTotalNanos returns the accumulated time of one span kind across all
// sampled requests.
func (m *Middleware) SpanTotalNanos(k SpanKind) int64 { return m.spanNanos[k].Load() }

// SpanSnapshot returns the latency histogram of one span kind.
func (m *Middleware) SpanSnapshot(k SpanKind) *latency.Snapshot { return m.spanHist[k].Snapshot() }

// StatusRecorder captures the response status for error counting.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

func (r *StatusRecorder) WriteHeader(code int) {
	r.Status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the NDJSON stream endpoint can
// deliver each line as it is classified — without this the responses would
// sit in the server's write buffer until the handler returned.
func (r *StatusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// the stream endpoint uses for EnableFullDuplex and per-line Flush.
func (r *StatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// RequestID returns the caller-supplied X-Request-Id (bounded to 128 bytes)
// or generates a fresh 64-bit hex ID.
func RequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(b[:])
}

// acceptsAny reports whether the Accept header admits at least one of the
// endpoint's content types.
func acceptsAny(headers []string, ctypes []string) bool {
	for _, ct := range ctypes {
		if Accepts(headers, ct) {
			return true
		}
	}
	return len(ctypes) == 0
}

// Accepts reports whether the request's Accept header lines admit ctype:
// whether they give it a quality above 0 (see quality). An absent (or
// blank) header accepts everything, and an explicit q=0 on the exact type
// refuses it even when a wildcard would admit it.
func Accepts(headers []string, ctype string) bool {
	return quality(headers, ctype) > 0
}

// quality returns the weight the Accept header lines give ctype. Per RFC
// 9110 §12.5.1 the most specific matching range governs (exact type over
// "type/*" over "*/*"), and among equally specific duplicates the highest q
// wins. A ctype no range matches gets 0; an absent (or blank) header gives
// every type 1.
func quality(headers []string, ctype string) float64 {
	slash := strings.IndexByte(ctype, '/')
	seen := false
	bestSpec, bestQ := -1, 0.0
	for _, header := range headers {
		if strings.TrimSpace(header) == "" {
			continue
		}
		seen = true
		for _, part := range strings.Split(header, ",") {
			mt := strings.TrimSpace(part)
			q := 1.0
			if i := strings.IndexByte(mt, ';'); i >= 0 {
				q = qvalue(mt[i+1:])
				mt = strings.TrimSpace(mt[:i])
			}
			spec := -1
			switch {
			case strings.EqualFold(mt, ctype):
				spec = 2
			case strings.HasSuffix(mt, "/*") && strings.EqualFold(mt[:len(mt)-2], ctype[:slash]):
				spec = 1
			case mt == "*/*":
				spec = 0
			}
			if spec < 0 {
				continue
			}
			switch {
			case spec > bestSpec:
				bestSpec, bestQ = spec, q
			case spec == bestSpec && q > bestQ:
				// Duplicate ranges at equal specificity: be generous.
				bestQ = q
			}
		}
	}
	if !seen {
		return 1
	}
	return bestQ
}

// qvalue extracts the quality weight from a media-range parameter list. It
// takes q only when it is an RFC 9110 §12.4.2 qvalue — "0" with up to three
// decimals or "1" with up to three zeros — so it always lies in [0, 1].
// Anything else (NaN, -1, 5, 0x1p-1, 0.0001) is malformed, which RFC 9110
// leaves unspecified; like an absent q it counts as 1, refusing a type only
// on an explicit, well-formed q=0.
func qvalue(params string) float64 {
	for _, p := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if ok && strings.EqualFold(strings.TrimSpace(k), "q") {
			if v = strings.TrimSpace(v); validQvalue(v) {
				q, _ := strconv.ParseFloat(v, 64)
				return q
			}
			return 1
		}
	}
	return 1
}

// validQvalue reports whether v matches qvalue = ( "0" [ "." 0*3DIGIT ] ) /
// ( "1" [ "." 0*3("0") ] ).
func validQvalue(v string) bool {
	if v == "" || v[0] != '0' && v[0] != '1' {
		return false
	}
	frac := v[1:]
	if frac == "" {
		return true
	}
	if frac[0] != '.' || len(frac) > 4 {
		return false
	}
	for _, d := range frac[1:] {
		if d < '0' || d > '9' || v[0] == '1' && d != '0' {
			return false
		}
	}
	return true
}

// Fail writes a JSON error body carrying the request ID stamped by the
// middleware, so a client log line and a server metric line correlate.
func Fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	if id := w.Header().Get("X-Request-Id"); id != "" {
		body["requestId"] = id
	}
	json.NewEncoder(w).Encode(body)
}
