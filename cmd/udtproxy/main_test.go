package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"udt/internal/obs"
)

// echoBackend is a stand-in replica: it answers /healthz with ok and echoes
// the request path, body and its own name on everything else.
func echoBackend(t *testing.T, name string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{
			"backend": name, "path": r.URL.Path, "body": string(body),
		})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRequestIDForwarded: the proxy forwards the request ID its middleware
// stamped — the client's, or a fresh one — to the backend, and the client
// sees exactly that one ID, not the proxy's next to the backend's echo.
func TestRequestIDForwarded(t *testing.T) {
	seen := make(chan string, 1)
	var mw obs.Middleware
	var em obs.EndpointMetrics
	backend := httptest.NewServer(mw.Wrap("classify", &em, nil, func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get("X-Request-Id")
		fmt.Fprint(w, `{"class":"lo"}`)
	}))
	defer backend.Close()
	ts := httptest.NewServer(mustProxy(t, "roundrobin", backend.URL).handler())
	defer ts.Close()

	for _, clientID := range []string{"", "client-id-1"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/classify", strings.NewReader(`{"num":[1]}`))
		if err != nil {
			t.Fatal(err)
		}
		if clientID != "" {
			req.Header.Set("X-Request-Id", clientID)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		ids := res.Header.Values("X-Request-Id")
		backendID := <-seen
		if len(ids) != 1 || ids[0] == "" {
			t.Fatalf("client ID %q: response carries X-Request-Id %q, want exactly one", clientID, ids)
		}
		if backendID != ids[0] {
			t.Fatalf("client ID %q: backend saw %q, client got %q", clientID, backendID, ids[0])
		}
		if clientID != "" && ids[0] != clientID {
			t.Fatalf("client ID %q replaced by %q", clientID, ids[0])
		}
	}
}

func mustProxy(t *testing.T, strategy string, urls ...string) *proxy {
	t.Helper()
	p, err := newProxy(urls, strategy)
	if err != nil {
		t.Fatal(err)
	}
	p.healthTimeout = time.Second
	return p
}

func TestRoutingKey(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"/v1/models/alpha/classify", "alpha"},
		{"/v1/models/alpha/classify/stream", "alpha"},
		{"/v1/models/beta", "beta"},
		{"/classify", "/classify"},
		{"/v1/models/", "/v1/models/"},
		{"/healthz", "/healthz"},
	} {
		if got := routingKey(tc.path); got != tc.want {
			t.Errorf("routingKey(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestRendezvousStability: the same key always lands on the same backend,
// and removing one backend remaps only that backend's keys.
func TestRendezvousStability(t *testing.T) {
	p := mustProxy(t, "rendezvous", "http://a:1", "http://b:1", "http://c:1")
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	first := map[string]string{}
	for _, k := range keys {
		order := p.pick(k)
		if len(order) != 3 {
			t.Fatalf("pick(%q) returned %d backends", k, len(order))
		}
		first[k] = order[0].url
		// Stable across repeated picks.
		for i := 0; i < 3; i++ {
			if again := p.pick(k); again[0].url != first[k] {
				t.Fatalf("pick(%q) unstable: %s then %s", k, first[k], again[0].url)
			}
		}
	}
	// Keys must not all hash to one backend (6 keys, 3 backends: collisions
	// allowed, monoculture is a hashing bug).
	seen := map[string]bool{}
	for _, b := range first {
		seen[b] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all keys mapped to %v", first)
	}
	// Kill one backend: its keys move, everyone else's stay.
	dead := p.backends[0]
	dead.healthy.Store(false)
	for k, prev := range first {
		now := p.pick(k)[0].url
		if prev == dead.url {
			if now == dead.url {
				t.Fatalf("key %q still on dead backend", k)
			}
		} else if now != prev {
			t.Fatalf("key %q remapped %s -> %s though its backend is alive", k, prev, now)
		}
	}
}

// TestRoundRobinForwarding: requests rotate across healthy backends and the
// response names the serving replica.
func TestRoundRobinForwarding(t *testing.T) {
	b1, b2 := echoBackend(t, "one"), echoBackend(t, "two")
	p := mustProxy(t, "roundrobin", b1.URL, b2.URL)
	ts := httptest.NewServer(p.handler())
	defer ts.Close()

	got := map[string]int{}
	for i := 0; i < 4; i++ {
		res, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(`{"n":1}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Backend, Body string }
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK || out.Body != `{"n":1}` {
			t.Fatalf("forward %d: status %d, body %q", i, res.StatusCode, out.Body)
		}
		if res.Header.Get("X-Backend") == "" {
			t.Fatal("missing X-Backend header")
		}
		got[out.Backend]++
	}
	if got["one"] != 2 || got["two"] != 2 {
		t.Fatalf("round-robin distribution = %v", got)
	}
}

// TestFailoverRetry: with one backend dead, every buffered-body request
// still succeeds via transparent retry, the dead backend is marked
// unhealthy, and the retry counter records the replay.
func TestFailoverRetry(t *testing.T) {
	live := echoBackend(t, "live")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	p := mustProxy(t, "roundrobin", deadURL, live.URL)
	ts := httptest.NewServer(p.handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		res, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(`{"n":2}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Backend, Body string }
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK || out.Backend != "live" || out.Body != `{"n":2}` {
			t.Fatalf("request %d after failover: status %d, %+v", i, res.StatusCode, out)
		}
	}
	if p.backends[0].healthy.Load() {
		t.Fatal("dead backend still marked healthy")
	}
	// Exactly one replay: the first request hit the dead backend and failed
	// over; the rest skipped it outright.
	if got := p.mtr.retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := p.mtr.proxyEP.Errors.Load(); got != 0 {
		t.Fatalf("client-visible errors = %d, want 0", got)
	}
}

// TestBackendErrorNotRetried: an HTTP error from a live backend is relayed,
// never replayed elsewhere — the backend answered.
func TestBackendErrorNotRetried(t *testing.T) {
	var hits sync.Map
	erring := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Store("erring", true)
		obs.Fail(w, http.StatusBadRequest, fmt.Errorf("bad tuple"))
	}))
	defer erring.Close()
	other := echoBackend(t, "other")

	p := mustProxy(t, "rendezvous", erring.URL, other.URL)
	ts := httptest.NewServer(p.handler())
	defer ts.Close()

	// Find a key that rendezvous-routes to the erring backend.
	key := ""
	for _, cand := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if p.pick(cand)[0].url == erring.URL {
			key = cand
			break
		}
	}
	if key == "" {
		t.Fatal("no key routed to the erring backend")
	}
	res, err := http.Post(ts.URL+"/v1/models/"+key+"/classify", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("relayed status = %d, want 400", res.StatusCode)
	}
	if p.mtr.retries.Load() != 0 {
		t.Fatal("HTTP error was retried")
	}
	if !p.backends[0].healthy.Load() {
		t.Fatal("backend answering 400 was marked unhealthy")
	}
}

// TestHealthLoopRecovery: the poller demotes a failing backend and promotes
// it again when /healthz recovers; /-/healthz reports the state throughout.
func TestHealthLoopRecovery(t *testing.T) {
	var broken sync.Map
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, bad := broken.Load("x"); bad && r.URL.Path == "/healthz" {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer flaky.Close()

	p := mustProxy(t, "roundrobin", flaky.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.healthLoop(ctx, 5*time.Millisecond)
	ts := httptest.NewServer(p.handler())
	defer ts.Close()

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for p.backends[0].healthy.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("backend never became healthy=%v", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	broken.Store("x", true)
	waitHealth(false)

	// All backends down: the proxy's own health check degrades and requests
	// are refused with Retry-After rather than queued.
	hres, err := http.Get(ts.URL + "/-/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	if err := json.NewDecoder(hres.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" || health.Healthy != 0 {
		t.Fatalf("degraded healthz = %d %+v", hres.StatusCode, health)
	}
	res, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || res.Header.Get("Retry-After") == "" {
		t.Fatalf("no-backend refusal = %d, Retry-After %q", res.StatusCode, res.Header.Get("Retry-After"))
	}
	if p.mtr.noBackend.Load() == 0 {
		t.Fatal("noBackend counter did not move")
	}

	broken.Delete("x")
	waitHealth(true)
	if p.backends[0].transitions.Load() < 2 {
		t.Fatalf("transitions = %d, want >= 2", p.backends[0].transitions.Load())
	}
}

// TestStreamingRelay: NDJSON response lines flow through the proxy as they
// are produced, not after the backend finishes.
func TestStreamingRelay(t *testing.T) {
	release := make(chan struct{})
	stream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"line":1}`)
		w.(http.Flusher).Flush()
		<-release // hold the stream open; line 1 must already be readable
		fmt.Fprintln(w, `{"line":2}`)
	}))
	defer stream.Close()
	defer close(release)

	p := mustProxy(t, "roundrobin", stream.URL)
	ts := httptest.NewServer(p.handler())
	defer ts.Close()

	res, err := http.Post(ts.URL+"/classify/stream", "application/x-ndjson", strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	br := bufio.NewReader(res.Body)
	type line struct {
		got string
		err error
	}
	c := make(chan line, 1)
	go func() {
		l, err := br.ReadString('\n')
		c <- line{l, err}
	}()
	select {
	case l := <-c:
		if l.err != nil || !strings.Contains(l.got, `"line":1`) {
			t.Fatalf("first relayed line = %q, %v", l.got, l.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first line never relayed while backend stream still open")
	}
}

// TestProxyMetricsScrape: the JSON and Prometheus views agree on forward
// accounting.
func TestProxyMetricsScrape(t *testing.T) {
	b := echoBackend(t, "solo")
	p := mustProxy(t, "roundrobin", b.URL)
	ts := httptest.NewServer(p.handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		res, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
	res, err := http.Get(ts.URL + "/-/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		Proxy struct {
			Requests struct {
				Requests int64 `json:"requests"`
			} `json:"requests"`
			Retries int64 `json:"retries"`
		} `json:"proxy"`
		Backends map[string]struct {
			Healthy  bool `json:"healthy"`
			Forwards struct {
				Requests int64 `json:"requests"`
				Errors   int64 `json:"errors"`
			} `json:"forwards"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(res.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if js.Proxy.Requests.Requests != 3 || js.Backends[b.URL].Forwards.Requests != 3 || js.Backends[b.URL].Forwards.Errors != 0 {
		t.Fatalf("metrics JSON = %+v", js)
	}

	pres, err := http.Get(ts.URL + "/-/metrics?format=prometheus")
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
	label := obs.Label{Key: "backend", Value: b.URL}
	if v, ok := e.Value("udtproxy_backend_requests_total", label); !ok || v != 3 {
		t.Fatalf("udtproxy_backend_requests_total = %v, %v", v, ok)
	}
	if v, ok := e.Value("udtproxy_backend_healthy", label); !ok || v != 1 {
		t.Fatalf("udtproxy_backend_healthy = %v, %v", v, ok)
	}
	if v, ok := e.Value("udtproxy_requests_total"); !ok || v != 3 {
		t.Fatalf("udtproxy_requests_total = %v, %v", v, ok)
	}
}

// TestMetricsNegotiation: /-/metrics negotiates its dialect like udtserve's
// /metrics. With no ?format=, the text exposition is served exactly when
// the Accept header rates text/plain above application/json.
func TestMetricsNegotiation(t *testing.T) {
	b := echoBackend(t, "solo")
	ts := httptest.NewServer(mustProxy(t, "roundrobin", b.URL).handler())
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
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/-/metrics", nil)
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
		} else if res.StatusCode != http.StatusOK || !strings.HasPrefix(ctype, "application/json") || !json.Valid(body) {
			t.Errorf("Accept %q: status %d type %q, want JSON", h.accept, res.StatusCode, ctype)
		}
	}
}

// TestNewProxyValidation: malformed configuration is refused up front.
func TestNewProxyValidation(t *testing.T) {
	if _, err := newProxy([]string{"http://a:1"}, "random"); err == nil {
		t.Error("bad strategy accepted")
	}
	if _, err := newProxy([]string{""}, "roundrobin"); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := newProxy([]string{"not a url"}, "roundrobin"); err == nil {
		t.Error("relative backend URL accepted")
	}
	if _, err := newProxy([]string{"http://a:1", "http://a:1"}, "roundrobin"); err == nil {
		t.Error("duplicate backend accepted")
	}
	if err := run(context.Background(), []string{}); err == nil || !strings.Contains(err.Error(), "-backends") {
		t.Errorf("missing -backends: %v", err)
	}
}
