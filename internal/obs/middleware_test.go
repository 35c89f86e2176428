package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// get performs one request against a wrapped handler and returns the
// recorder.
func get(t *testing.T, h http.HandlerFunc, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h(w, req)
	return w
}

func TestMiddlewareSamplingDeterministic(t *testing.T) {
	m := &Middleware{SampleEvery: 2}
	var em EndpointMetrics
	traced := []bool{}
	h := m.Wrap("x", &em, nil, func(w http.ResponseWriter, r *http.Request) {
		traced = append(traced, TraceFrom(r.Context()) != nil)
	})
	for i := 0; i < 4; i++ {
		get(t, h, nil)
	}
	want := []bool{true, false, true, false}
	for i, tr := range traced {
		if tr != want[i] {
			t.Fatalf("request %d traced=%v, want %v (all: %v)", i+1, tr, want[i], traced)
		}
	}
	if m.Sampled() != 2 {
		t.Fatalf("Sampled() = %d, want 2", m.Sampled())
	}
}

func TestMiddlewareDisabledHasNoTrace(t *testing.T) {
	m := &Middleware{}
	var em EndpointMetrics
	h := m.Wrap("x", &em, nil, func(w http.ResponseWriter, r *http.Request) {
		if TraceFrom(r.Context()) != nil {
			t.Error("trace present with SampleEvery 0")
		}
	})
	get(t, h, nil)
	if m.Sampled() != 0 {
		t.Fatalf("Sampled() = %d, want 0", m.Sampled())
	}
}

func TestMiddlewareAccounting(t *testing.T) {
	m := &Middleware{}
	var em EndpointMetrics
	h := m.Wrap("x", &em, []string{"application/json"}, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fail") != "" {
			Fail(w, http.StatusBadRequest, http.ErrBodyNotAllowed)
			return
		}
		w.Write([]byte("{}"))
	})

	w := get(t, h, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if id := w.Header().Get("X-Request-Id"); len(id) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", id)
	}

	// Echoed request ID.
	w = get(t, h, map[string]string{"X-Request-Id": "caller-chosen"})
	if id := w.Header().Get("X-Request-Id"); id != "caller-chosen" {
		t.Fatalf("request id %q, want echo", id)
	}

	// Unacceptable Accept header is refused with 406 and counted as an error.
	w = get(t, h, map[string]string{"Accept": "text/csv"})
	if w.Code != http.StatusNotAcceptable {
		t.Fatalf("status = %d, want 406", w.Code)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" || body.RequestID == "" {
		t.Fatalf("406 body = %+v, want error and requestId", body)
	}

	// A handler-level failure status is counted too.
	req := httptest.NewRequest(http.MethodGet, "/x?fail=1", nil)
	rec := httptest.NewRecorder()
	h(rec, req)

	if got := em.Requests.Load(); got != 4 {
		t.Fatalf("requests = %d, want 4", got)
	}
	if got := em.Errors.Load(); got != 2 {
		t.Fatalf("errors = %d, want 2", got)
	}
	if em.Nanos.Load() <= 0 || em.Hist.Snapshot().Total() != 4 {
		t.Fatalf("latency accounting: nanos=%d histTotal=%d", em.Nanos.Load(), em.Hist.Snapshot().Total())
	}

	doc := map[string]any{}
	em.Declare(doc, "x", nil, nil, nil)
	snap := doc["x"].(map[string]any)
	for _, key := range []string{"requests", "errors", "totalLatency", "avgLatency", "latency"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("Snapshot missing %q: %v", key, snap)
		}
	}
}

func TestMiddlewareAccessLogSpans(t *testing.T) {
	var logBuf bytes.Buffer
	m := &Middleware{
		SampleEvery: 1,
		Log:         slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}
	var em EndpointMetrics
	h := m.Wrap("classify", &em, nil, func(w http.ResponseWriter, r *http.Request) {
		tr := TraceFrom(r.Context())
		tr.Begin(SpanDecode)
		time.Sleep(2 * time.Millisecond)
		tr.End(SpanDecode)
		tr.AddTuples(3)
		tr.Begin(SpanClassify)
		time.Sleep(time.Millisecond)
		tr.End(SpanClassify)
		w.Write([]byte("{}"))
	})
	get(t, h, map[string]string{"X-Request-Id": "rid-1"})

	var line struct {
		Msg            string `json:"msg"`
		RequestID      string `json:"requestId"`
		Endpoint       string `json:"endpoint"`
		Status         int    `json:"status"`
		TotalMicros    int64  `json:"totalMicros"`
		DecodeMicros   int64  `json:"decodeMicros"`
		ClassifyMicros int64  `json:"classifyMicros"`
		EncodeMicros   int64  `json:"encodeMicros"`
		Tuples         int    `json:"tuples"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, logBuf.String())
	}
	if line.Msg != "request" || line.RequestID != "rid-1" || line.Endpoint != "classify" || line.Status != 200 || line.Tuples != 3 {
		t.Fatalf("access log = %+v", line)
	}
	if line.DecodeMicros <= 0 || line.ClassifyMicros <= 0 {
		t.Fatalf("span micros not recorded: %+v", line)
	}
	spanSum := line.DecodeMicros + line.ClassifyMicros + line.EncodeMicros
	if spanSum > line.TotalMicros {
		t.Fatalf("span sum %dµs exceeds request total %dµs", spanSum, line.TotalMicros)
	}

	// The spans landed in the middleware's per-span state.
	if m.SpanTotalNanos(SpanDecode) <= 0 || m.SpanSnapshot(SpanDecode).Total() != 1 {
		t.Fatalf("decode span not folded: nanos=%d", m.SpanTotalNanos(SpanDecode))
	}
	if m.SpanTotalNanos(SpanEncode) != 0 {
		t.Fatalf("encode span recorded %d nanos without any Begin", m.SpanTotalNanos(SpanEncode))
	}
}

func TestAcceptsNegotiation(t *testing.T) {
	cases := []struct {
		accept string
		ctype  string
		want   bool
	}{
		{"", "application/json", true},
		{"application/json", "application/json", true},
		{"application/*", "application/json", true},
		{"*/*", "application/json", true},
		{"text/plain", "application/json", false},
		{"application/json;q=0", "application/json", false},
		{"*/*;q=0", "application/json", false},
		{"*/*;q=0, application/json", "application/json", true},
		{"application/json;q=0, */*", "application/json", false},
		// Only an RFC 9110 qvalue counts; a malformed q counts as 1.
		{"application/json;q=NaN", "application/json", true},
		{"application/json;q=-1", "application/json", true},
		{"application/json;q=-0", "application/json", true},
		{"application/json;q=0e0", "application/json", true},
		{"application/json;q=0.0000", "application/json", true},
		{"application/json;q=Inf", "application/json", true},
		{"application/json;q=0x1p-1", "application/json", true},
		{"application/json;q=0.000", "application/json", false},
		{"application/json;q=0.", "application/json", false},
	}
	for _, tc := range cases {
		headers := []string{tc.accept}
		if tc.accept == "" {
			headers = nil
		}
		if got := Accepts(headers, tc.ctype); got != tc.want {
			t.Errorf("Accepts(%q, %q) = %v, want %v", tc.accept, tc.ctype, got, tc.want)
		}
	}
	// Multi-type endpoints admit a request accepting any one of them.
	if !acceptsAny([]string{"text/plain"}, []string{"application/json", "text/plain"}) {
		t.Fatal("acceptsAny refused a listed type")
	}
	if acceptsAny([]string{"text/csv"}, []string{"application/json", "text/plain"}) {
		t.Fatal("acceptsAny admitted an unlisted type")
	}
}

// TestQvalueGrammar: quality takes q only when it is an RFC 9110 qvalue —
// "0" with up to three decimals or "1" with up to three zeros — and counts
// anything else as 1, so every quality lies in [0, 1] and a q above 1 cannot
// outrank a well-formed q=1.
func TestQvalueGrammar(t *testing.T) {
	for _, tc := range []struct {
		accept string
		want   float64
	}{
		{"application/json", 1},
		{"application/json;q=0", 0},
		{"application/json;q=0.5", 0.5},
		{"application/json; q=0.125 ", 0.125},
		{"application/json;Q=0.25", 0.25},
		{"application/json;q=1.000", 1},
		{"application/json;q=0.", 0},
		{"application/json;q=NaN", 1},
		{"application/json;q=-1", 1},
		{"application/json;q=Inf", 1},
		{"application/json;q=0x1p-1", 1},
		{"application/json;q=5", 1},
		{"application/json;q=1.5", 1},
		{"application/json;q=1.001", 1},
		{"application/json;q=0.0001", 1},
		{"application/json;q=1e-400", 1},
		{"application/json;q=+0", 1},
		{"application/json;q=00", 1},
		{"application/json;q=", 1},
	} {
		if got := quality([]string{tc.accept}, "application/json"); got != tc.want {
			t.Errorf("quality(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
	headers := []string{"text/plain;q=5, application/json;q=1"}
	if text, json := quality(headers, "text/plain"), quality(headers, "application/json"); text > json {
		t.Errorf("%q: text/plain quality %v outranks application/json %v", headers[0], text, json)
	}
}

// TestWrapModelDualAccounting: WrapModel feeds the identical observation
// into the endpoint metrics and the per-request resolved metrics — requests,
// errors, and latency all move in lockstep — and a nil resolution (or nil
// resolver) leaves only the endpoint counters moving. This is the contract
// the model registry inherits instead of growing its own accounting.
func TestWrapModelDualAccounting(t *testing.T) {
	m := &Middleware{}
	var em EndpointMetrics
	perModel := map[string]*EndpointMetrics{
		"a": new(EndpointMetrics),
		"b": new(EndpointMetrics),
	}
	h := m.WrapModel("x", &em, func(r *http.Request) *EndpointMetrics {
		return perModel[r.Header.Get("X-Model")] // nil for unknown
	}, nil, func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Model") == "b" {
			Fail(w, http.StatusBadRequest, http.ErrBodyNotAllowed)
		}
	})

	get(t, h, map[string]string{"X-Model": "a"})
	get(t, h, map[string]string{"X-Model": "a"})
	get(t, h, map[string]string{"X-Model": "b"})
	get(t, h, map[string]string{"X-Model": "zzz"}) // resolves to nil

	if got := em.Requests.Load(); got != 4 {
		t.Fatalf("endpoint requests = %d, want 4", got)
	}
	if got := em.Errors.Load(); got != 1 {
		t.Fatalf("endpoint errors = %d, want 1", got)
	}
	a, b := perModel["a"], perModel["b"]
	if a.Requests.Load() != 2 || a.Errors.Load() != 0 {
		t.Fatalf("model a = %d req %d err, want 2/0", a.Requests.Load(), a.Errors.Load())
	}
	if b.Requests.Load() != 1 || b.Errors.Load() != 1 {
		t.Fatalf("model b = %d req %d err, want 1/1", b.Requests.Load(), b.Errors.Load())
	}
	if a.Nanos.Load() <= 0 || b.Nanos.Load() <= 0 {
		t.Fatal("per-model latency not recorded")
	}
	// Endpoint total covers every request; per-model totals cover subsets.
	if em.Nanos.Load() < a.Nanos.Load() || em.Nanos.Load() < b.Nanos.Load() {
		t.Fatal("endpoint latency smaller than a per-model subset")
	}

	// Accept negotiation failures are observed in both dimensions too: the
	// 406 happens before the handler but after model resolution.
	get(t, h, map[string]string{"X-Model": "a", "Accept": "text/csv"})
	hNeg := m.WrapModel("x", &em, func(r *http.Request) *EndpointMetrics {
		return perModel[r.Header.Get("X-Model")]
	}, []string{"application/json"}, func(w http.ResponseWriter, r *http.Request) {})
	w := get(t, hNeg, map[string]string{"X-Model": "a", "Accept": "text/csv"})
	if w.Code != http.StatusNotAcceptable {
		t.Fatalf("status = %d, want 406", w.Code)
	}
	if a.Errors.Load() != 1 {
		t.Fatalf("model a errors after 406 = %d, want 1", a.Errors.Load())
	}
}
