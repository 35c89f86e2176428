package main

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"udt/internal/obs"
	"udt/internal/registry"
)

// epSnap mirrors the obs.EndpointMetrics JSON snapshot.
type epSnap struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// metricsModels is the /metrics JSON slice this file cares about.
type metricsModels struct {
	Registry struct {
		Models  int    `json:"models"`
		Default string `json:"default"`
	} `json:"registry"`
	Models map[string]struct {
		Generation     int64  `json:"generation"`
		Tuples         int64  `json:"tuples"`
		Classify       epSnap `json:"classify"`
		ClassifyStream epSnap `json:"classifyStream"`
		Shadow         *struct {
			Path             string `json:"path"`
			Comparisons      int64  `json:"comparisons"`
			ArgmaxDivergence int64  `json:"argmaxDivergence"`
			DistDivergence   int64  `json:"distDivergence"`
		} `json:"shadow"`
	} `json:"models"`
	Endpoints map[string]epSnap `json:"endpoints"`
}

func scrapeModels(t *testing.T, url string) metricsModels {
	t.Helper()
	res, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var js metricsModels
	decodeBody(t, res, http.StatusOK, &js)
	return js
}

// newRegistryServer builds a server over a temp dir holding the named model
// copies ("alpha" a tree, "beta" a forest).
func newRegistryServer(t *testing.T) *server {
	t.Helper()
	dir := t.TempDir()
	copyFile(t, trainModel(t), filepath.Join(dir, "alpha.json"))
	copyFile(t, trainForestModel(t, t.TempDir(), 3), filepath.Join(dir, "beta.json"))
	s, err := newServerOpts(registry.Options{Path: dir}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRegistryRoutesAndMetricsIsolation drives two models through their
// /v1/models/{name}/ routes and proves the per-model counters move
// independently: model-A traffic must never show up under model B, in either
// the JSON or the Prometheus view.
func TestRegistryRoutesAndMetricsIsolation(t *testing.T) {
	s := newRegistryServer(t)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Two models, neither named "default": the legacy classify route must
	// refuse rather than guess which model the caller meant.
	res := postJSON(t, ts.URL+"/classify", `{"num": [0.2, [1, 2, 3]]}`)
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy /classify with no default = %d, want 404", res.StatusCode)
	}
	// Legacy healthz stays alive (liveness must not depend on a default).
	var health struct {
		Status string   `json:"status"`
		Models []string `json:"models"`
	}
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, hres, http.StatusOK, &health)
	if health.Status != "ok" || len(health.Models) != 2 {
		t.Fatalf("no-default healthz = %+v", health)
	}

	// alpha: two classifies and one stream line; beta: one good classify and
	// one malformed body (a per-model error).
	for i := 0; i < 2; i++ {
		var out struct {
			Class string `json:"class"`
		}
		decodeBody(t, postJSON(t, ts.URL+"/v1/models/alpha/classify", `{"num": [0.2, [1, 2, 3]]}`), http.StatusOK, &out)
		if out.Class != "lo" {
			t.Fatalf("alpha classify = %+v", out)
		}
	}
	sres, err := http.Post(ts.URL+"/v1/models/alpha/classify/stream", ndjsonType,
		strings.NewReader(`{"num": [9.2, [12, 13, 14]]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(sres.Body).ReadString('\n')
	// Drain to EOF: the server ends the response only after the middleware
	// has recorded the stream request, so the scrape below sees it.
	io.Copy(io.Discard, sres.Body)
	sres.Body.Close()
	if err != nil || !strings.Contains(line, `"hi"`) {
		t.Fatalf("alpha stream line = %q, %v", line, err)
	}
	var out struct {
		Class string `json:"class"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/v1/models/beta/classify", `{"num": [9.2, [12, 13, 14]]}`), http.StatusOK, &out)
	if out.Class != "hi" {
		t.Fatalf("beta classify = %+v", out)
	}
	bres := postJSON(t, ts.URL+"/v1/models/beta/classify", `{"nope": 1}`)
	io.Copy(io.Discard, bres.Body)
	bres.Body.Close()
	if bres.StatusCode != http.StatusBadRequest {
		t.Fatalf("beta malformed classify = %d, want 400", bres.StatusCode)
	}
	// Unknown model: 404 on the endpoint dimension only.
	ures := postJSON(t, ts.URL+"/v1/models/nosuch/classify", `{"num": [0.2, [1, 2, 3]]}`)
	io.Copy(io.Discard, ures.Body)
	ures.Body.Close()
	if ures.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404", ures.StatusCode)
	}

	js := scrapeModels(t, ts.URL)
	if js.Registry.Models != 2 || js.Registry.Default != "" {
		t.Fatalf("registry doc = %+v", js.Registry)
	}
	a, b := js.Models["alpha"], js.Models["beta"]
	if a.Classify != (epSnap{Requests: 2}) || a.ClassifyStream != (epSnap{Requests: 1}) || a.Tuples != 3 {
		t.Fatalf("alpha counters = classify %+v stream %+v tuples %d", a.Classify, a.ClassifyStream, a.Tuples)
	}
	if b.Classify != (epSnap{Requests: 2, Errors: 1}) || b.ClassifyStream != (epSnap{}) || b.Tuples != 1 {
		t.Fatalf("beta counters = classify %+v stream %+v tuples %d", b.Classify, b.ClassifyStream, b.Tuples)
	}
	// Endpoint dimension: the unknown-model 404 lands here (5 = 2 alpha + 2
	// beta + 1 nosuch) and nowhere in any model's counters.
	if js.Endpoints["modelClassify"] != (epSnap{Requests: 5, Errors: 2}) {
		t.Fatalf("modelClassify endpoint = %+v", js.Endpoints["modelClassify"])
	}
	// Legacy endpoints saw the no-default refusal only.
	if js.Endpoints["classify"] != (epSnap{Requests: 1, Errors: 1}) {
		t.Fatalf("legacy classify endpoint = %+v", js.Endpoints["classify"])
	}

	// The same isolation in the Prometheus exposition.
	pres, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(pres.Body)
	pres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	e, err := obs.ParseText(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := func(name string, v float64, labels ...obs.Label) {
		t.Helper()
		got, ok := e.Value(name, labels...)
		if !ok || got != v {
			t.Fatalf("%s%v = %v, %v; want %v", name, labels, got, ok, v)
		}
	}
	mlabel := func(m string) obs.Label { return obs.Label{Key: "model", Value: m} }
	eplabel := func(ep string) obs.Label { return obs.Label{Key: "endpoint", Value: ep} }
	want("udt_registry_models", 2)
	want("udt_model_requests_total", 2, mlabel("alpha"), eplabel("classify"))
	want("udt_model_requests_total", 1, mlabel("alpha"), eplabel("classifyStream"))
	want("udt_model_requests_total", 2, mlabel("beta"), eplabel("classify"))
	want("udt_model_requests_total", 0, mlabel("beta"), eplabel("classifyStream"))
	want("udt_model_request_errors_total", 0, mlabel("alpha"), eplabel("classify"))
	want("udt_model_request_errors_total", 1, mlabel("beta"), eplabel("classify"))
	want("udt_model_tuples_total", 3, mlabel("alpha"))
	want("udt_model_tuples_total", 1, mlabel("beta"))
	want("udt_registry_generation", 1, mlabel("alpha"))
	want("udt_registry_generation", 1, mlabel("beta"))
}

// TestRegistryReloadAndEvict exercises the per-model reload and DELETE
// routes: a reload bumps only that model's generation; an evicted model
// vanishes from routing and from /metrics while the other keeps serving.
func TestRegistryReloadAndEvict(t *testing.T) {
	s := newRegistryServer(t)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var rl struct {
		Status     string `json:"status"`
		Name       string `json:"name"`
		Generation int64  `json:"generation"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/v1/models/beta/reload", `{}`), http.StatusOK, &rl)
	if rl.Status != "reloaded" || rl.Name != "beta" || rl.Generation != 2 {
		t.Fatalf("beta reload = %+v", rl)
	}
	js := scrapeModels(t, ts.URL)
	if js.Models["alpha"].Generation != 1 || js.Models["beta"].Generation != 2 {
		t.Fatalf("generations after beta reload = alpha %d beta %d",
			js.Models["alpha"].Generation, js.Models["beta"].Generation)
	}

	// Named healthz reports the entry, not the default.
	var health struct {
		Name       string `json:"name"`
		Generation int64  `json:"generation"`
	}
	hres, err := http.Get(ts.URL + "/v1/models/beta/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, hres, http.StatusOK, &health)
	if health.Name != "beta" || health.Generation != 2 {
		t.Fatalf("beta healthz = %+v", health)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/beta", nil)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ev struct {
		Status string `json:"status"`
		Name   string `json:"name"`
	}
	decodeBody(t, dres, http.StatusOK, &ev)
	if ev.Status != "evicted" || ev.Name != "beta" {
		t.Fatalf("evict = %+v", ev)
	}
	gone := postJSON(t, ts.URL+"/v1/models/beta/classify", `{"num": [9.2, [12, 13, 14]]}`)
	io.Copy(io.Discard, gone.Body)
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted model classify = %d, want 404", gone.StatusCode)
	}
	js = scrapeModels(t, ts.URL)
	if js.Registry.Models != 1 {
		t.Fatalf("registry.models after evict = %d", js.Registry.Models)
	}
	if _, ok := js.Models["beta"]; ok {
		t.Fatal("evicted model still reported in /metrics")
	}
	var out struct {
		Class string `json:"class"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/v1/models/alpha/classify", `{"num": [0.2, [1, 2, 3]]}`), http.StatusOK, &out)
	if out.Class != "lo" {
		t.Fatalf("alpha after beta evict = %+v", out)
	}
}

// TestRegistryDirDefaultEntry: a directory entry literally named "default"
// backs the legacy routes, and legacy traffic lands in its per-model
// counters.
func TestRegistryDirDefaultEntry(t *testing.T) {
	dir := t.TempDir()
	copyFile(t, trainModel(t), filepath.Join(dir, "default.json"))
	copyFile(t, trainForestModel(t, t.TempDir(), 3), filepath.Join(dir, "other.json"))
	s, err := newServerOpts(registry.Options{Path: dir}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var out struct {
		Class string `json:"class"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/classify", `{"num": [0.2, [1, 2, 3]]}`), http.StatusOK, &out)
	if out.Class != "lo" {
		t.Fatalf("legacy classify via default entry = %+v", out)
	}
	js := scrapeModels(t, ts.URL)
	if js.Registry.Default != "default" {
		t.Fatalf("registry.default = %q", js.Registry.Default)
	}
	if js.Models["default"].Classify != (epSnap{Requests: 1}) || js.Models["other"].Classify != (epSnap{}) {
		t.Fatalf("legacy traffic accounting = default %+v other %+v",
			js.Models["default"].Classify, js.Models["other"].Classify)
	}
}

// TestShadowServing: -model plus -shadow mirrors classify traffic to the
// candidate generation and reports comparison counters; identical models
// never diverge.
func TestShadowServing(t *testing.T) {
	modelPath := trainModel(t)
	shadowPath := filepath.Join(t.TempDir(), "candidate.json")
	copyFile(t, modelPath, shadowPath)
	s, err := newServerOpts(registry.Options{Path: modelPath, Shadow: shadowPath}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	res := postJSON(t, ts.URL+"/classify", `{"tuples": [
		{"num": [0.2, [1, 2, 3]]},
		{"num": [9.2, [12, 13, 14]]},
		{"num": [0.3, [2, 3, 4]]}
	]}`)
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("classify with shadow = %d", res.StatusCode)
	}
	sres, err := http.Post(ts.URL+"/classify/stream", ndjsonType,
		strings.NewReader(`{"num": [0.2, [1, 2, 3]]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sres.Body)
	sres.Body.Close()

	js := scrapeModels(t, ts.URL)
	sh := js.Models["default"].Shadow
	if sh == nil {
		t.Fatal("no shadow section in /metrics")
	}
	if sh.Path != shadowPath || sh.Comparisons != 4 || sh.ArgmaxDivergence != 0 || sh.DistDivergence != 0 {
		t.Fatalf("shadow counters = %+v", sh)
	}
}

// TestPerModelStreamBudget: a manifest maxStreams budget refuses the second
// concurrent stream for that model with 503 while the global cap stays
// untouched.
func TestPerModelStreamBudget(t *testing.T) {
	dir := t.TempDir()
	copyFile(t, trainModel(t), filepath.Join(dir, "a.json"))
	manifest := filepath.Join(dir, "models.manifest.json")
	if err := os.WriteFile(manifest, []byte(
		`{"models": [{"name": "a", "path": "a.json", "maxStreams": 1, "default": true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newServerOpts(registry.Options{Path: manifest}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Hold stream 1 open: send one line, read its answer, keep the body
	// pending so the per-model gauge stays at 1.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/a/classify/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ndjsonType)
	resc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			errc <- err
			return
		}
		resc <- res
	}()
	if _, err := io.WriteString(pw, `{"num": [0.2, [1, 2, 3]]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	var first *http.Response
	select {
	case first = <-resc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("stream 1 never answered")
	}
	if _, err := bufio.NewReader(first.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	// Stream 2 against the same model must be refused by the entry budget.
	res2, err := http.Post(ts.URL+"/v1/models/a/classify/stream", ndjsonType,
		strings.NewReader(`{"num": [0.2, [1, 2, 3]]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res2.Body)
	res2.Body.Close()
	if res2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget stream = %d, want 503", res2.StatusCode)
	}
	if res2.Header.Get("Retry-After") == "" {
		t.Fatal("over-budget stream refusal missing Retry-After")
	}
	pw.Close()
	io.Copy(io.Discard, first.Body)
	first.Body.Close()

	if got := s.reg.Get("a").Metrics.StreamRejected.Load(); got != 1 {
		t.Fatalf("per-model streamRejected = %d", got)
	}
	if got := s.mtr.streamRejected.Load(); got != 0 {
		t.Fatalf("global streamRejected moved: %d", got)
	}
}
