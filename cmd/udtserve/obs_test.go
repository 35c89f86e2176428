package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"udt/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestInstrumentRoutes pins the invariant behind the middleware and the
// route table: every route gets identical request/error/latency accounting
// on its own counters, and Accept enforcement. It walks the table itself,
// so a route added to the table is covered here without edits.
func TestInstrumentRoutes(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if len(s.routes) != 10 {
		t.Fatalf("route table holds %d routes, want 10", len(s.routes))
	}
	do := func(method, path, body, accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res
	}

	const tuple = `{"num": [0.2, [1, 2, 3]]}`
	for i, rt := range s.routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		path = strings.Replace(path, "{model}", "default", 1)
		// Evicting the one model must come last: every other route needs it.
		if method == http.MethodDelete && i != len(s.routes)-1 {
			t.Fatalf("%s: the eviction route must be the table's last", rt.name)
		}
		body := ""
		switch {
		case strings.HasSuffix(path, "/classify"):
			body = tuple
		case strings.HasSuffix(path, "/classify/stream"):
			body = tuple + "\n"
		}
		if res := do(method, path, body, ""); res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", rt.name, res.StatusCode)
		}
		// No route serves text/csv; the shared middleware refuses it before
		// the handler runs and counts the refusal as an error.
		res := do(method, path, body, "text/csv")
		if res.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("%s with Accept text/csv: status %d, want 406", rt.name, res.StatusCode)
		}
		if res.Header.Get("X-Request-Id") == "" {
			t.Fatalf("%s: 406 response carries no X-Request-Id", rt.name)
		}
	}
	for _, rt := range s.routes {
		if got := rt.em.Requests.Load(); got != 2 {
			t.Errorf("%s: requests = %d, want 2", rt.name, got)
		}
		if got := rt.em.Errors.Load(); got != 1 {
			t.Errorf("%s: errors = %d, want 1", rt.name, got)
		}
		if got := rt.em.Hist.Snapshot().Total(); got != 2 {
			t.Errorf("%s: latency histogram holds %d events, want 2", rt.name, got)
		}
	}
}

// TestScrapeBothFormats: /metrics negotiates between the JSON document and
// the Prometheus text exposition, and the exposition survives the strict
// parser.
func TestScrapeBothFormats(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	get := func(path, accept string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return res, body
	}

	// Default and ?format=json are the JSON document.
	for _, path := range []string{"/metrics", "/metrics?format=json"} {
		res, body := get(path, "")
		if res.StatusCode != http.StatusOK || !strings.HasPrefix(res.Header.Get("Content-Type"), jsonType) {
			t.Fatalf("%s: status %d type %q", path, res.StatusCode, res.Header.Get("Content-Type"))
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: not JSON: %v", path, err)
		}
		for _, key := range []string{"tuplesClassified", "endpoints", "runtime", "build", "trace"} {
			if _, ok := doc[key]; !ok {
				t.Fatalf("%s: JSON document missing %q", path, key)
			}
		}
	}

	// ?format=prometheus and a text/plain-only Accept header get the text
	// exposition; both must parse strictly.
	for _, r := range []struct{ path, accept string }{
		{"/metrics?format=prometheus", ""},
		{"/metrics", "text/plain"},
	} {
		res, body := get(r.path, r.accept)
		if res.StatusCode != http.StatusOK || res.Header.Get("Content-Type") != obs.TextType {
			t.Fatalf("%s (Accept %q): status %d type %q", r.path, r.accept, res.StatusCode, res.Header.Get("Content-Type"))
		}
		e, err := obs.ParseText(body)
		if err != nil {
			t.Fatalf("%s: exposition rejected by parser: %v", r.path, err)
		}
		if _, ok := e.Families["udt_requests_total"]; !ok {
			t.Fatalf("%s: exposition lacks udt_requests_total", r.path)
		}
	}

	// A JSON-accepting client still gets JSON even though text is available.
	res, body := get("/metrics", "application/json")
	if !strings.HasPrefix(res.Header.Get("Content-Type"), jsonType) || !json.Valid(body) {
		t.Fatalf("Accept application/json: type %q", res.Header.Get("Content-Type"))
	}

	// Unknown formats are a client error, not a silent default.
	res, body = get("/metrics?format=xml", "")
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml: status %d, want 400 (body %s)", res.StatusCode, body)
	}
}

// TestMetricsNegotiation: with no ?format=, /metrics serves the text
// exposition exactly when the Accept header rates text/plain above
// application/json. Prometheus's own scrape headers (text/plain, or
// OpenMetrics before it, ahead of a low-quality */*) and plain text/plain
// get the text exposition; JSON, */* and no header get JSON.
func TestMetricsNegotiation(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for _, h := range []struct {
		accept string
		text   bool
	}{
		{"text/plain;version=0.0.4;q=1,*/*;q=0.1", true},
		{"application/openmetrics-text;version=1.0.0,application/openmetrics-text;version=0.0.1;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1", true},
		{"text/plain", true},
		{"application/json", false},
		{"*/*", false},
		{"", false},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if h.accept != "" {
			req.Header.Set("Accept", h.accept)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		ctype := res.Header.Get("Content-Type")
		if h.text {
			if _, perr := obs.ParseText(body); res.StatusCode != http.StatusOK || ctype != obs.TextType || perr != nil {
				t.Errorf("Accept %q: status %d type %q (%v), want the text exposition", h.accept, res.StatusCode, ctype, perr)
			}
		} else if res.StatusCode != http.StatusOK || !strings.HasPrefix(ctype, jsonType) || !json.Valid(body) {
			t.Errorf("Accept %q: status %d type %q, want JSON", h.accept, res.StatusCode, ctype)
		}
	}
}

// TestMetricsPrometheusMatchesJSON: the two /metrics views are projections
// of the same counters and must agree value-for-value. The one systematic
// skew: endpoint accounting is recorded after the handler runs, so the
// Prometheus scrape (taken second) sees the JSON scrape as one extra
// /metrics request.
func TestMetricsPrometheusMatchesJSON(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Traffic across endpoints: two classify batches, a stream, a reload, a
	// healthz, and one classify error.
	for _, body := range []string{
		`{"tuples": [{"num": [0.2, [1, 2, 3]]}, {"num": [9.2, [12, 13, 14]]}]}`,
		`{"num": [0.3, [1, 3, 5]]}`,
	} {
		res := postJSON(t, ts.URL+"/classify", body)
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
	res := postJSON(t, ts.URL+"/classify", `{"bogus": true}`)
	res.Body.Close()
	res = postJSON(t, ts.URL+"/classify/stream", `{"num": [0.2, [1, 2, 3]]}`+"\n{bad\n")
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	res = postJSON(t, ts.URL+"/reload", "")
	res.Body.Close()
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()

	var js struct {
		Generation       int64 `json:"generation"`
		TuplesClassified int64 `json:"tuplesClassified"`
		Stream           struct {
			Lines      int64 `json:"lines"`
			LineErrors int64 `json:"lineErrors"`
			Rejected   int64 `json:"rejected"`
			Active     int64 `json:"active"`
		} `json:"stream"`
		Watch struct {
			Reloads int64 `json:"reloads"`
			Errors  int64 `json:"errors"`
		} `json:"watch"`
		EarlyExit struct {
			Predictions      int64 `json:"predictions"`
			MembersEvaluated int64 `json:"membersEvaluated"`
		} `json:"earlyExit"`
		Trace struct {
			Sampled int64 `json:"sampled"`
		} `json:"trace"`
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	jres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, jres, http.StatusOK, &js)

	pres, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(pres.Body)
	pres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	e, perr := obs.ParseText(blob)
	if perr != nil {
		t.Fatalf("exposition rejected: %v", perr)
	}

	mustEqual := func(name string, want float64, labels ...obs.Label) {
		t.Helper()
		got, ok := e.Value(name, labels...)
		if !ok {
			t.Fatalf("exposition lacks %s%v", name, labels)
		}
		if got != want {
			t.Errorf("%s%v = %v, JSON says %v", name, labels, got, want)
		}
	}

	mustEqual("udt_model_generation", float64(js.Generation))
	mustEqual("udt_tuples_classified_total", float64(js.TuplesClassified))
	mustEqual("udt_stream_lines_total", float64(js.Stream.Lines))
	mustEqual("udt_stream_line_errors_total", float64(js.Stream.LineErrors))
	mustEqual("udt_streams_rejected_total", float64(js.Stream.Rejected))
	mustEqual("udt_streams_active", float64(js.Stream.Active))
	mustEqual("udt_watch_reloads_total", float64(js.Watch.Reloads))
	mustEqual("udt_watch_errors_total", float64(js.Watch.Errors))
	mustEqual("udt_early_exit_predictions_total", float64(js.EarlyExit.Predictions))
	mustEqual("udt_early_exit_members_total", float64(js.EarlyExit.MembersEvaluated))
	mustEqual("udt_trace_sampled_total", float64(js.Trace.Sampled))

	if len(js.Endpoints) != 10 {
		t.Fatalf("JSON endpoints = %v", js.Endpoints)
	}
	for name, ep := range js.Endpoints {
		wantReq, wantErr := float64(ep.Requests), float64(ep.Errors)
		if name == "metrics" {
			wantReq++ // the JSON scrape itself, counted after its handler ran
		}
		label := obs.Label{Key: "endpoint", Value: name}
		mustEqual("udt_requests_total", wantReq, label)
		mustEqual("udt_request_errors_total", wantErr, label)
		mustEqual("udt_request_latency_seconds_count", wantReq, label)
	}
	if v, ok := e.Value("udt_batch_size_sum"); !ok || v != 3 {
		t.Fatalf("udt_batch_size_sum = %v, %v; want 3 (a 2-batch and a single)", v, ok)
	}
	if v, ok := e.Value("udt_batch_size_count"); !ok || v != 2 {
		t.Fatalf("udt_batch_size_count = %v, %v; want 2 classify calls", v, ok)
	}
}

// familySignature renders one family as "name type sig,sig,..." where each
// sig is a series' label shape. Routing labels (endpoint, span) are pinned
// by value — they are dashboard API; build-dependent label values are pinned
// by key only.
func familySignature(f obs.Family) string {
	sig := func(labels []obs.Label) string {
		if len(labels) == 0 {
			return "()"
		}
		parts := make([]string, 0, len(labels))
		for _, l := range labels {
			switch l.Key {
			case "endpoint", "span":
				parts = append(parts, l.Key+"="+l.Value)
			default:
				parts = append(parts, l.Key)
			}
		}
		sort.Strings(parts)
		return "(" + strings.Join(parts, ",") + ")"
	}
	var sigs []string
	for _, s := range f.Samples {
		sigs = append(sigs, sig(s.Labels))
	}
	for _, h := range f.Hists {
		sigs = append(sigs, sig(h.Labels))
	}
	sort.Strings(sigs)
	return fmt.Sprintf("%s %s %s", f.Name, f.Type, strings.Join(sigs, " "))
}

// TestPromFamiliesGolden pins every exposition series name and label set.
// A diff here is a breaking change for scrape configs and dashboards — if
// intended, regenerate with: go test ./cmd/udtserve -run Golden -update-golden
func TestPromFamiliesGolden(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	var x obs.Export
	s.export(&x)
	var lines []string
	for _, f := range x.Families() {
		lines = append(lines, familySignature(f))
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "prom_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("prometheus family signatures changed (run with -update-golden if intended):\ngot:\n%swant:\n%s", got, want)
	}
}

// syncBuffer lets the test read the access log the server goroutine writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTraceSpansWithinLatency: a sampled request's decode/classify/encode
// spans are disjoint sub-intervals of the handler, so their sum can never
// exceed the recorded endpoint latency; in early-exit mode the trace also
// carries the members-evaluated count.
func TestTraceSpansWithinLatency(t *testing.T) {
	s, err := newServerMode(trainForestModel(t, t.TempDir(), 5), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	s.mw.SampleEvery = 1
	s.mw.Log = slog.New(slog.NewJSONHandler(&logBuf, nil))
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	res := postJSON(t, ts.URL+"/classify", `{"tuples": [
		{"num": [0.2, [1, 2, 3]]},
		{"num": [9.2, [12, 13, 14]]}
	]}`)
	io.Copy(io.Discard, res.Body)
	res.Body.Close()

	// The access log is emitted after the response completes; wait for the
	// line rather than racing it.
	deadline := time.Now().Add(2 * time.Second)
	var raw string
	for {
		if raw = logBuf.String(); strings.Contains(raw, "\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no access log line within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var line struct {
		Endpoint       string `json:"endpoint"`
		Status         int    `json:"status"`
		TotalMicros    int64  `json:"totalMicros"`
		DecodeMicros   int64  `json:"decodeMicros"`
		ClassifyMicros int64  `json:"classifyMicros"`
		EncodeMicros   int64  `json:"encodeMicros"`
		Tuples         int    `json:"tuples"`
		Members        int    `json:"members"`
	}
	if err := json.Unmarshal([]byte(raw[:strings.Index(raw, "\n")]), &line); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, raw)
	}
	if line.Endpoint != "classify" || line.Status != 200 || line.Tuples != 2 {
		t.Fatalf("access log = %+v", line)
	}
	if line.Members < 2 {
		t.Fatalf("early-exit trace evaluated %d members for 2 tuples", line.Members)
	}
	spanSum := line.DecodeMicros + line.ClassifyMicros + line.EncodeMicros
	if spanSum > line.TotalMicros {
		t.Fatalf("span sum %dµs exceeds request total %dµs", spanSum, line.TotalMicros)
	}
	if s.mw.Sampled() != 1 {
		t.Fatalf("Sampled() = %d, want 1", s.mw.Sampled())
	}
	if s.mw.SpanTotalNanos(obs.SpanDecode) <= 0 || s.mw.SpanTotalNanos(obs.SpanClassify) <= 0 {
		t.Fatal("span nanos not folded into middleware state")
	}
	if s.mw.SpanSnapshot(obs.SpanClassify).Total() != 1 {
		t.Fatal("classify span histogram did not record the request")
	}
}

// TestPprofListener: the -pprof mux serves the profile index off the
// serving handler entirely.
func TestPprofListener(t *testing.T) {
	ts := httptest.NewServer(pprofMux())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: status %d, %d bytes", path, res.StatusCode, len(body))
		}
	}
	// The serving handler itself must NOT expose pprof.
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	app := httptest.NewServer(s.handler())
	defer app.Close()
	res, err := http.Get(app.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable on the serving handler")
	}
}
