// Command udtproxy load-balances udtserve replicas: it forwards every
// request to one of N backends, health-checks them via GET /healthz, fails
// over around dead ones, and exposes its own observability under /-/.
//
// Usage:
//
//	udtproxy -backends http://host1:8080,http://host2:8080
//	         [-addr :8090] [-strategy roundrobin|rendezvous]
//	         [-health-interval 1s] [-health-timeout 2s]
//	         [-read-timeout 30s] [-write-timeout 60s] [-version]
//
// Strategies:
//
//	roundrobin — each request goes to the next healthy backend in rotation.
//	rendezvous — highest-random-weight (rendezvous) hashing on the request's
//	             routing key: the model name for /v1/models/{name}/... paths,
//	             the path otherwise. Every proxy instance maps a key to the
//	             same backend with no coordination, and removing a backend
//	             remaps only that backend's keys — the consistent-hashing
//	             property that keeps per-model cache locality (a model's mmap
//	             pages stay hot on one replica) through membership churn.
//
// Failover: a background poller marks backends healthy/unhealthy from GET
// /healthz, and a forward that fails at the transport layer (connection
// refused, reset — the backend never saw or never answered the request)
// marks the backend unhealthy immediately and retries the remaining healthy
// backends. Request bodies up to 16 MiB are buffered so the retry can
// replay them; larger bodies forward as a stream with no retry. HTTP error
// statuses from a live backend are relayed, never retried — the backend
// answered, the proxy must not second-guess it.
//
// Proxy-owned endpoints (never forwarded; the /-/ prefix cannot collide
// with udtserve's API):
//
//	GET /-/healthz — proxy liveness plus per-backend health.
//	GET /-/metrics — forward counts, retries, per-backend request/error/
//	                 latency, health-transition counters; JSON by default,
//	                 the text exposition for ?format=prometheus or an Accept
//	                 header that rates text/plain above application/json,
//	                 as udtserve's /metrics negotiates.
//
// Every forwarded response carries the backend's headers verbatim plus
// X-Backend naming the serving replica; proxy-generated errors use the
// shared obs error shape with a request ID.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"udt/internal/cliutil"
	"udt/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "udtproxy:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("udtproxy", flag.ExitOnError)
	backends := fs.String("backends", "", "comma-separated udtserve base URLs (required)")
	addr := fs.String("addr", ":8090", "listen address")
	strategy := fs.String("strategy", "roundrobin", "backend selection: roundrobin or rendezvous")
	healthInterval := fs.Duration("health-interval", time.Second, "backend /healthz poll interval")
	healthTimeout := fs.Duration("health-timeout", 2*time.Second, "per-backend health probe timeout")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "HTTP server write timeout")
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(cliutil.VersionString("udtproxy"))
		return nil
	}
	if *backends == "" {
		return errors.New("-backends is required")
	}
	if *healthInterval <= 0 || *healthTimeout <= 0 {
		return errors.New("-health-interval and -health-timeout must be positive")
	}
	p, err := newProxy(strings.Split(*backends, ","), *strategy)
	if err != nil {
		return err
	}
	p.healthTimeout = *healthTimeout
	go p.healthLoop(ctx, *healthInterval)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("udtproxy: %s across %d backend(s) on %s\n", p.strategy, len(p.backends), ln.Addr())
	srv := &http.Server{
		Handler:      p.handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		fmt.Println("udtproxy: shut down")
		return nil
	}
}

// maxRetryBody bounds the request-body buffer kept for failover replay;
// larger bodies forward as a one-shot stream.
const maxRetryBody = 16 << 20

// backend is one udtserve replica.
type backend struct {
	url     string // base URL, no trailing slash
	healthy atomic.Bool

	// metrics counts forwards actually attempted against this backend
	// (transport failures included), with the shared latency accounting.
	metrics obs.EndpointMetrics

	transitions atomic.Int64 // health flips observed (either direction)
	lastErr     atomic.Pointer[string]
}

// setHealthy flips the backend's health state, counting transitions.
func (b *backend) setHealthy(h bool, log *slog.Logger, why string) {
	if b.healthy.Swap(h) == h {
		return
	}
	b.transitions.Add(1)
	if h {
		log.Info("backend healthy", "backend", b.url)
	} else {
		log.Warn("backend unhealthy", "backend", b.url, "reason", why)
	}
}

type proxy struct {
	backends []*backend
	strategy string // "roundrobin" or "rendezvous"
	rr       atomic.Uint64

	client        *http.Client
	healthTimeout time.Duration
	log           *slog.Logger
	started       time.Time

	mw  obs.Middleware
	mtr struct {
		proxyEP   obs.EndpointMetrics // the forwarding catch-all
		healthzEP obs.EndpointMetrics
		metricsEP obs.EndpointMetrics

		retries      atomic.Int64 // forwards replayed on another backend
		noBackend    atomic.Int64 // requests refused: no healthy backend
		healthProbes atomic.Int64 // health-check requests issued
	}
}

func newProxy(rawURLs []string, strategy string) (*proxy, error) {
	if strategy != "roundrobin" && strategy != "rendezvous" {
		return nil, fmt.Errorf("-strategy %q: want roundrobin or rendezvous", strategy)
	}
	p := &proxy{
		strategy: strategy,
		log:      slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		started:  time.Now(),
		// No client-level timeout: streams legitimately outlive any fixed
		// budget. Dial failures surface immediately via the transport.
		client: &http.Client{
			// Forward redirects verbatim instead of following them: the
			// client behind the proxy decides.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
	}
	seen := map[string]bool{}
	for _, raw := range rawURLs {
		raw = strings.TrimSpace(strings.TrimSuffix(raw, "/"))
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("-backends: %q is not an absolute URL", raw)
		}
		if seen[raw] {
			return nil, fmt.Errorf("-backends: duplicate %q", raw)
		}
		seen[raw] = true
		b := &backend{url: raw}
		// Optimistic start: backends are healthy until a probe or a forward
		// says otherwise, so the proxy serves before the first poll tick.
		b.healthy.Store(true)
		p.backends = append(p.backends, b)
	}
	if len(p.backends) == 0 {
		return nil, errors.New("-backends: no backends given")
	}
	return p, nil
}

func (p *proxy) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /-/healthz", p.mw.Wrap("healthz", &p.mtr.healthzEP, []string{"application/json"}, p.healthz))
	mux.HandleFunc("GET /-/metrics", p.mw.Wrap("metrics", &p.mtr.metricsEP, []string{"application/json", "text/plain"}, obs.MetricsHandler(p.export)))
	// The catch-all forwards everything else. No content-type gate: the
	// backend negotiates.
	mux.HandleFunc("/", p.mw.Wrap("proxy", &p.mtr.proxyEP, nil, p.forward))
	return mux
}

// healthLoop probes every backend's GET /healthz at the given interval.
func (p *proxy) healthLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, b := range p.backends {
			p.probe(ctx, b)
		}
	}
}

// probe runs one health check against one backend.
func (p *proxy) probe(ctx context.Context, b *backend) {
	p.mtr.healthProbes.Add(1)
	pctx, cancel := context.WithTimeout(ctx, p.healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		b.setHealthy(false, p.log, err.Error())
		return
	}
	res, err := p.client.Do(req)
	if err != nil {
		msg := err.Error()
		b.lastErr.Store(&msg)
		b.setHealthy(false, p.log, msg)
		return
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("healthz status %d", res.StatusCode)
		b.lastErr.Store(&msg)
		b.setHealthy(false, p.log, msg)
		return
	}
	b.setHealthy(true, p.log, "")
}

// routingKey extracts the rendezvous key: the model name for
// /v1/models/{name}/... paths so one model's traffic (and its replica-side
// mmap locality) sticks to one backend, the whole path otherwise.
func routingKey(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/models/"); ok {
		if name, _, ok := strings.Cut(rest, "/"); ok && name != "" {
			return name
		} else if rest != "" {
			return rest
		}
	}
	return path
}

// pick orders the healthy backends for one request: the preferred backend
// first, the failover candidates after it. An empty result means nothing is
// healthy.
func (p *proxy) pick(key string) []*backend {
	healthy := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		if b.healthy.Load() {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	switch p.strategy {
	case "rendezvous":
		// Highest-random-weight: score each (key, backend) pair; the ranking
		// is stable per key and independent across backends, so losing one
		// backend promotes its runner-up without remapping anyone else.
		sort.SliceStable(healthy, func(i, j int) bool {
			return rendezvousScore(key, healthy[i].url) > rendezvousScore(key, healthy[j].url)
		})
	default: // roundrobin
		start := int(p.rr.Add(1)-1) % len(healthy)
		rotated := make([]*backend, 0, len(healthy))
		rotated = append(rotated, healthy[start:]...)
		rotated = append(rotated, healthy[:start]...)
		healthy = rotated
	}
	return healthy
}

// rendezvousScore hashes one (key, backend) pair.
func rendezvousScore(key, backendURL string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	io.WriteString(h, "\x00")
	io.WriteString(h, backendURL)
	return h.Sum64()
}

// forward proxies one request with transport-level failover.
func (p *proxy) forward(w http.ResponseWriter, r *http.Request) {
	order := p.pick(routingKey(r.URL.Path))
	if len(order) == 0 {
		p.mtr.noBackend.Add(1)
		w.Header().Set("Retry-After", "1")
		obs.Fail(w, http.StatusServiceUnavailable, errors.New("no healthy backend"))
		return
	}

	// Buffer the body (bounded) so a transport failure can replay it against
	// the next backend. An oversized body streams to the first backend only.
	var bodyBytes []byte
	retriable := true
	if r.Body != nil {
		buf, err := io.ReadAll(io.LimitReader(r.Body, maxRetryBody+1))
		if err != nil {
			obs.Fail(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
			return
		}
		if len(buf) > maxRetryBody {
			retriable = false
			r.Body = struct {
				io.Reader
				io.Closer
			}{io.MultiReader(bytes.NewReader(buf), r.Body), r.Body}
		} else {
			bodyBytes = buf
		}
	}

	// The middleware stamped the request ID (the client's, or a fresh one)
	// on the response; the backend gets the same ID so both logs correlate.
	id := w.Header().Get("X-Request-Id")
	for i, b := range order {
		if i > 0 {
			p.mtr.retries.Add(1)
		}
		start := time.Now()
		res, err := p.attempt(b, r, id, bodyBytes, retriable)
		if err != nil {
			b.metrics.Observe(time.Since(start), http.StatusBadGateway)
			msg := err.Error()
			b.lastErr.Store(&msg)
			b.setHealthy(false, p.log, msg)
			if retriable && i < len(order)-1 {
				continue
			}
			obs.Fail(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", b.url, err))
			return
		}
		p.relay(w, res, b)
		b.metrics.Observe(time.Since(start), res.StatusCode)
		return
	}
}

// attempt sends the request to one backend, carrying the proxy's request
// ID.
func (p *proxy) attempt(b *backend, r *http.Request, id string, bodyBytes []byte, retriable bool) (*http.Response, error) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	if retriable {
		out.Body = io.NopCloser(bytes.NewReader(bodyBytes))
		out.ContentLength = int64(len(bodyBytes))
	} else {
		out.Body = io.NopCloser(r.Body)
		out.ContentLength = r.ContentLength
	}
	copyHeaders(out.Header, r.Header)
	out.Header.Set("X-Forwarded-For", clientIP(r))
	out.Header.Set("X-Request-Id", id)
	return p.client.Do(out)
}

// relay copies the backend response to the client, streaming the body with
// per-chunk flushes so NDJSON responses stay interactive through the proxy.
// The backend's echo of the request ID is dropped: the response already
// carries the proxy's, and a client must see exactly one.
func (p *proxy) relay(w http.ResponseWriter, res *http.Response, b *backend) {
	defer res.Body.Close()
	res.Header.Del("X-Request-Id")
	copyHeaders(w.Header(), res.Header)
	w.Header().Set("X-Backend", b.url)
	w.WriteHeader(res.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := res.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// hopByHop are the connection-scoped headers a proxy must not forward
// (RFC 9110 §7.6.1).
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// clientIP extracts the requesting host for X-Forwarded-For.
func clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (p *proxy) healthz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	bs := make([]map[string]any, 0, len(p.backends))
	for _, b := range p.backends {
		h := b.healthy.Load()
		if h {
			healthy++
		}
		doc := map[string]any{"url": b.url, "healthy": h}
		if msg := b.lastErr.Load(); msg != nil && !h {
			doc["lastError"] = *msg
		}
		bs = append(bs, doc)
	}
	status := "ok"
	code := http.StatusOK
	if healthy == 0 {
		// The proxy is alive but useless; surface that to *its* health
		// checker so a proxy tier in front of dead replicas drains too.
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	version, commit := cliutil.BuildInfo()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"strategy": p.strategy,
		"healthy":  healthy,
		"backends": bs,
		"uptime":   time.Since(p.started).Round(time.Second).String(),
		"version":  version,
		"commit":   commit,
	})
}

// export declares every /-/metrics series once, in both dialects: its place
// in the JSON document and its Prometheus family. Families render in
// declaration order.
func (p *proxy) export(x *obs.Export) {
	version, commit := cliutil.BuildInfo()
	x.BuildInfo(nil, "", "udtproxy_build_info", version, commit)
	x.Uptime("udtproxy_uptime_seconds", "Seconds since the proxy started.", p.started)
	x.Obj()["strategy"] = p.strategy
	px := x.Obj("proxy")
	// The forwarding route's latency is reported in JSON only.
	p.mtr.proxyEP.Declare(px, "requests",
		x.Counter("udtproxy_requests_total", "Requests accepted for forwarding."),
		x.Counter("udtproxy_request_errors_total", "Forwarded requests that ended >= 400."), nil)
	x.Counter("udtproxy_retries_total", "Forwards replayed on another backend after a transport failure.").
		Value(px, "retries", p.mtr.retries.Load())
	x.Counter("udtproxy_no_backend_total", "Requests refused because no backend was healthy.").
		Value(px, "noBackend", p.mtr.noBackend.Load())
	x.Counter("udtproxy_health_probes_total", "Backend health checks issued.").
		Value(px, "healthProbes", p.mtr.healthProbes.Load())

	reqs := x.Counter("udtproxy_backend_requests_total", "Forward attempts, by backend.")
	errs := x.Counter("udtproxy_backend_errors_total", "Forward attempts answered >= 400 or failed, by backend.")
	lat := x.Histogram("udtproxy_backend_latency_seconds", "Forward latency, by backend.")
	up := x.Gauge("udtproxy_backend_healthy", "1 when the backend's last probe or forward succeeded.")
	trans := x.Counter("udtproxy_backend_transitions_total", "Health flips observed, by backend.")
	for _, b := range p.backends {
		label := obs.Label{Key: "backend", Value: b.url}
		doc := x.Obj("backends", b.url)
		b.metrics.Declare(doc, "forwards", reqs, errs, lat, label)
		// Health is a bool in JSON and a 0/1 gauge in the exposition.
		healthy := b.healthy.Load()
		doc["healthy"] = healthy
		h := int64(0)
		if healthy {
			h = 1
		}
		up.Value(nil, "", h, label)
		trans.Value(doc, "transitions", b.transitions.Load(), label)
	}
}
