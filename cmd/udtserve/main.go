// Command udtserve serves trained uncertain-decision-tree models over HTTP.
// It loads one model file written by "udtree train" — or a whole registry of
// named models from a directory or manifest — compiles them into the
// flat-array inference engine, and classifies tuples from JSON requests in
// batches.
//
// Usage:
//
//	udtserve -model model.json [-shadow candidate.json] | -models dir-or-manifest
//	         [-addr :8080] [-workers N]
//	         [-read-timeout 10s] [-write-timeout 30s] [-watch 0s]
//	         [-max-streams 0] [-early-exit] [-trace-sample 0]
//	         [-pprof addr] [-version]
//
// -model serves a single model as the registry's "default" entry; -shadow
// optionally attaches a candidate model to it for shadow comparison. -models
// serves many: a directory (one entry per model file, named by basename
// minus extension; an entry named "default" — or a lone entry — backs the
// legacy routes) or a JSON manifest (path ending in .manifest or
// .manifest.json) of the form
//
//	{"models": [{"name": "a", "path": "a.udt", "shadow": "a-next.udt",
//	             "maxStreams": 8, "default": true}, ...]}
//
// with model paths relative to the manifest's directory. Per-model
// maxStreams is a QoS budget layered under the global -max-streams cap.
//
// -early-exit switches prediction to staged early exit: members are
// evaluated in descending vote-weight order and evaluation stops once the
// leading class can no longer be overtaken. Predicted classes are
// byte-identical to full evaluation; responses carry membersEvaluated
// instead of a distribution, and /metrics aggregates the counts. A single
// tree is a one-member forest and always reports membersEvaluated 1.
//
// Endpoints:
//
//	POST /classify        — classify one tuple or a batch.
//	POST /classify/stream — NDJSON: one tuple document per request line, one
//	                        result (or per-line error) object per response
//	                        line, decoded, classified and flushed line by
//	                        line (full duplex), so arbitrarily long streams
//	                        run in constant memory. A malformed line yields
//	                        an error object and the stream continues.
//	                        -read-timeout/-write-timeout bound per-line
//	                        idleness, not total stream duration (deadlines
//	                        roll forward with each answered line).
//	                        -max-streams N caps concurrent streams: excess
//	                        requests are refused with 503 + Retry-After so
//	                        hostile stream floods cannot wedge the worker
//	                        pool.
//	POST /reload          — re-read the model file and swap it in atomically;
//	                        in-flight requests finish on the model they
//	                        started with. Binary (mmap-served) models are
//	                        unmapped only after the last such request drains.
//	                        Deploys must replace the model file by atomic
//	                        rename, never in-place truncation: the old file
//	                        may still be mapped (see internal/binfmt.Load).
//	GET  /healthz         — liveness plus active model metadata (format,
//	                        generation, tree count, OOB stats for forests)
//	                        and the registry's model names.
//	GET  /metrics         — request counts, error counts, per-endpoint
//	                        latency (totals plus a power-of-two histogram for
//	                        percentile bounds), a batch-size histogram,
//	                        NDJSON line counters, early-exit counters,
//	                        per-model counters (requests, errors, latency,
//	                        tuples, stream budget, shadow divergence), build
//	                        info, runtime metrics (heap, GC pauses,
//	                        goroutines) and trace-span histograms, all plain
//	                        atomic state. The default view is JSON;
//	                        ?format=prometheus, or an Accept header that
//	                        rates text/plain above application/json (as a
//	                        Prometheus scraper's does), selects the
//	                        Prometheus text exposition of the same counters.
//
// The legacy routes above serve the registry's default entry. Every model is
// additionally served under its name:
//
//	POST   /v1/models/{model}/classify        — as /classify
//	POST   /v1/models/{model}/classify/stream — as /classify/stream
//	POST   /v1/models/{model}/reload          — as /reload
//	GET    /v1/models/{model}/healthz         — as /healthz
//	DELETE /v1/models/{model}                 — evict the model: it leaves
//	                                            the table immediately,
//	                                            in-flight requests drain,
//	                                            the mapping closes after the
//	                                            last one. The default entry
//	                                            cannot be evicted.
//
// A model configured with a shadow serves every request from its primary
// generation and synchronously mirrors classify traffic to the shadow
// (candidate) generation, comparing predicted classes and full
// distributions; divergence counters in /metrics gate promotion. Shadow
// load is real load by design — the mirror is the candidate's dress
// rehearsal.
//
// -trace-sample N traces every Nth request (deterministically by arrival
// order): decode/classify/encode span timings land in per-span /metrics
// histograms and one structured JSON access-log line per sampled request is
// written to stderr. 0 (the default) disables tracing; handlers then pay
// only a nil check.
//
// -pprof addr serves net/http/pprof on a separate listener (never on the
// serving mux), so profiling stays operator-only.
//
// -watch polls every registry entry's model file mtime at the given interval
// and hot-reloads through the same serialised path as POST /reload, closing
// the deploy loop without an operator call. Reload outcomes are logged as
// structured JSON records on stderr.
//
// Every response carries an X-Request-Id header — echoed from the request
// when present, generated otherwise — and error bodies repeat it as
// "requestId". The Accept header is honoured: a request that cannot accept
// the endpoint's content type (application/json, or application/x-ndjson for
// the stream endpoint) is refused with 406.
//
// A tuple is encoded as {"num": [...], "cat": [...]} with one entry per
// model attribute, in model order. Numeric entries are a number (a point
// value), an array of numbers (raw repeated measurements, equal mass), an
// object {"xs": [...], "masses": [...]} (an explicit sampled pdf), or null
// (missing). Categorical entries are a domain value string, an array of
// per-value masses, or null (missing). A batch request wraps tuples in
// {"tuples": [...]}; the response mirrors the shape of the request.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/bits"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"udt"
	"udt/internal/cliutil"
	"udt/internal/forest"
	"udt/internal/modelio"
	"udt/internal/obs"
	"udt/internal/par"
	"udt/internal/registry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "udtserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("udtserve", flag.ExitOnError)
	model := fs.String("model", "", "model file written by udtree train (serves as the default model)")
	models := fs.String("models", "", "model directory or .manifest.json serving many named models (exclusive with -model)")
	shadowPath := fs.String("shadow", "", "candidate model mirrored by the default model's classify traffic (requires -model)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent classification workers per batch (>= 1)")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "HTTP server read timeout")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
	watch := fs.Duration("watch", 0, "poll every model file at this interval and hot-reload on change (0 = disabled)")
	maxStreams := fs.Int("max-streams", 0, "max concurrent /classify/stream requests across all models; excess get 503 + Retry-After (0 = unlimited)")
	earlyExit := fs.Bool("early-exit", false, "predict with staged early exit: byte-identical classes, no distributions, membersEvaluated reported")
	traceSample := fs.Int("trace-sample", 0, "trace every Nth request: span timings into /metrics plus one JSON access-log line on stderr (0 = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(cliutil.VersionString("udtserve"))
		return nil
	}
	if *model == "" && *models == "" {
		return errors.New("-model is required (or -models for a multi-model registry)")
	}
	if *model != "" && *models != "" {
		return errors.New("-model and -models are mutually exclusive")
	}
	if *shadowPath != "" && *model == "" {
		return errors.New("-shadow requires -model (manifests carry per-model shadows)")
	}
	if *traceSample < 0 {
		return errors.New("-trace-sample must be >= 0")
	}
	if err := cliutil.CheckPositive("-workers", *workers); err != nil {
		return err
	}
	if *readTimeout <= 0 || *writeTimeout <= 0 {
		return errors.New("-read-timeout and -write-timeout must be positive")
	}
	if *watch < 0 {
		return errors.New("-watch must be >= 0")
	}
	if *maxStreams < 0 {
		return errors.New("-max-streams must be >= 0")
	}
	path := *model
	if path == "" {
		path = *models
	}
	s, err := newServerOpts(registry.Options{
		Path:   path,
		Shadow: *shadowPath,
	}, *workers, *earlyExit)
	if err != nil {
		return err
	}
	s.streamReadTimeout = *readTimeout
	s.streamWriteTimeout = *writeTimeout
	s.maxStreams = *maxStreams
	if *traceSample > 0 {
		s.mw.SampleEvery = *traceSample
		s.mw.Log = s.log
	}
	if *watch > 0 {
		go s.watchLoop(ctx, *watch)
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		fmt.Printf("udtserve: pprof on %s\n", pln.Addr())
		// Best-effort: a dying pprof listener must not take serving down.
		go func() {
			if err := http.Serve(pln, pprofMux()); err != nil {
				fmt.Fprintf(os.Stderr, "udtserve: pprof listener: %v\n", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("udtserve: serving %d model(s) [%s] from %s on %s, workers=%d\n",
		s.reg.Len(), joinNames(s.reg.Names()), path, ln.Addr(), *workers)
	srv := &http.Server{
		Handler:      s.handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, drain in-flight requests.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		s.reg.Close()
		fmt.Println("udtserve: shut down")
		return nil
	}
}

// joinNames renders the registry's model names for the startup line.
func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += n
	}
	return out
}

// maxBody bounds a request body; a 16 MiB batch is far beyond any sane
// classification request.
const maxBody = 16 << 20

type server struct {
	// reg is the named model table: per-entry refcounted generations,
	// serialised reloads, per-model metrics and stream budgets, shadow
	// generations. The legacy single-model routes serve its default entry.
	reg     *registry.Registry
	workers int
	started time.Time
	mtr     metrics
	// routes is the route table (see newRoutes): every endpoint, with its
	// request/error/latency accounting.
	routes []*route

	// log is the structured JSON logger shared by the watch poller, the
	// registry's close-error reporting, and (when tracing) the access log.
	log *slog.Logger

	// mw is the shared request middleware: request IDs, Accept negotiation,
	// endpoint accounting, and (when SampleEvery > 0) trace sampling.
	mw obs.Middleware
	// rt collects process runtime metrics on /metrics scrapes.
	rt obs.RuntimeStats

	// Per-line deadline extensions for the stream endpoint (the server's
	// global read/write timeouts are per-request, which would kill a long
	// interactive stream mid-flight).
	streamReadTimeout  time.Duration
	streamWriteTimeout time.Duration

	// Stream admission control: at most maxStreams concurrent
	// /classify/stream requests across all models when positive (0 =
	// unlimited); excess requests get 503 + Retry-After instead of a
	// worker-pool slot. Each registry entry may layer a tighter per-model
	// budget underneath.
	maxStreams    int
	activeStreams atomic.Int64

	// earlyExit switches prediction to staged early exit (-early-exit):
	// classes stay byte-identical to full evaluation, distributions are not
	// produced, and membersEvaluated counters flow to clients and /metrics.
	// Set at construction and immutable afterwards.
	earlyExit bool
}

// newServer loads and compiles a single model file as the default entry.
func newServer(modelPath string, workers int) (*server, error) {
	return newServerMode(modelPath, workers, false)
}

// newServerMode is newServer plus the early-exit prediction mode.
func newServerMode(modelPath string, workers int, earlyExit bool) (*server, error) {
	return newServerOpts(registry.Options{Path: modelPath}, workers, earlyExit)
}

// newServerOpts builds the server over a model registry: a single file, a
// directory of models, or a manifest, per registry.Open.
func newServerOpts(opts registry.Options, workers int, earlyExit bool) (*server, error) {
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		opts.Log = log
	}
	reg, err := registry.Open(opts)
	if err != nil {
		return nil, err
	}
	s := &server{
		reg:                reg,
		workers:            workers,
		started:            time.Now(),
		log:                log,
		streamReadTimeout:  10 * time.Second,
		streamWriteTimeout: 30 * time.Second,
		earlyExit:          earlyExit,
	}
	s.routes = s.newRoutes()
	return s, nil
}

// watchLoop polls every registry entry's model file identity (mtime + size)
// and hot-reloads changed ones until the context ends. A failed reload
// leaves the old model serving and retries on the next change (a broken file
// that stays broken is reported once per write, not once per tick).
// Outcomes are structured log records, machine-parseable at registry-scale
// reload churn.
func (s *server) watchLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, res := range s.reg.Poll() {
			if res.Err != nil {
				s.mtr.watchErrors.Add(1)
				s.log.Error("watch reload failed",
					"model", res.Entry.Name, "path", res.Entry.Path, "err", res.Err)
				continue
			}
			s.mtr.watchReloads.Add(1)
			s.log.Info("watch reloaded",
				"model", res.Entry.Name, "path", res.Entry.Path,
				"description", res.Describe, "generation", res.Generation)
		}
	}
}

// Content types the server produces.
const (
	jsonType   = "application/json"
	ndjsonType = "application/x-ndjson"
)

// textType is the bare media type of the Prometheus exposition, for Accept
// negotiation (obs.TextType carries the full versioned parameters).
const textType = "text/plain"

// route is one endpoint: its mux pattern, the name its accounting goes
// under (the endpoint label in /metrics), the content types it produces,
// its handler and its request/error/latency counters. perModel, when set,
// picks the counters of the request's registry entry that the route feeds
// as well.
type route struct {
	pattern  string
	name     string
	ctypes   []string
	handler  http.HandlerFunc
	perModel func(*registry.Metrics) *obs.EndpointMetrics
	em       obs.EndpointMetrics
}

// newRoutes is the route table, the one list of udtserve's endpoints. A
// legacy route and its /v1 twin share a handler, which serves the entry the
// path names or, on the legacy route, the default entry; each route keeps
// its own accounting. Table order is the order of the endpoint series in
// /metrics.
func (s *server) newRoutes() []*route {
	classify := func(m *registry.Metrics) *obs.EndpointMetrics { return &m.Classify }
	stream := func(m *registry.Metrics) *obs.EndpointMetrics { return &m.Stream }
	js, nd := []string{jsonType}, []string{ndjsonType}
	return []*route{
		{pattern: "POST /classify", name: "classify", ctypes: js, handler: s.classify, perModel: classify},
		{pattern: "POST /classify/stream", name: "classifyStream", ctypes: nd, handler: s.classifyStream, perModel: stream},
		{pattern: "POST /reload", name: "reload", ctypes: js, handler: s.reload},
		{pattern: "GET /healthz", name: "healthz", ctypes: js, handler: s.healthz},
		{pattern: "GET /metrics", name: "metrics", ctypes: []string{jsonType, textType}, handler: obs.MetricsHandler(s.export)},
		{pattern: "POST /v1/models/{model}/classify", name: "modelClassify", ctypes: js, handler: s.classify, perModel: classify},
		{pattern: "POST /v1/models/{model}/classify/stream", name: "modelClassifyStream", ctypes: nd, handler: s.classifyStream, perModel: stream},
		{pattern: "POST /v1/models/{model}/reload", name: "modelReload", ctypes: js, handler: s.reload},
		{pattern: "GET /v1/models/{model}/healthz", name: "modelHealthz", ctypes: js, handler: s.healthz},
		{pattern: "DELETE /v1/models/{model}", name: "modelRemove", ctypes: js, handler: s.modelRemove},
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes {
		// A request whose entry does not resolve (no default, unknown name)
		// moves only the route's counters; the handler then refuses it.
		var per func(*http.Request) *obs.EndpointMetrics
		if pick := rt.perModel; pick != nil {
			per = func(r *http.Request) *obs.EndpointMetrics {
				if e := s.entry(r); e != nil {
					return pick(&e.Metrics)
				}
				return nil
			}
		}
		mux.HandleFunc(rt.pattern, s.mw.WrapModel(rt.name, &rt.em, per, rt.ctypes, rt.handler))
	}
	return mux
}

// entry resolves the registry entry a request addresses: the one its path
// names, or the default entry on a legacy route, whose path names none. It
// returns nil when there is no such entry.
func (s *server) entry(r *http.Request) *registry.Entry {
	if name := r.PathValue("model"); name != "" {
		return s.reg.Get(name)
	}
	return s.reg.Default()
}

// noEntry refuses a request whose entry did not resolve with 404.
func (s *server) noEntry(w http.ResponseWriter, r *http.Request) {
	if name := r.PathValue("model"); name != "" {
		fail(w, http.StatusNotFound, fmt.Errorf("no model %q (serving: %v)", name, s.reg.Names()))
		return
	}
	fail(w, http.StatusNotFound,
		fmt.Errorf("no default model (serving: %v); use /v1/models/{name}/...", s.reg.Names()))
}

// pprofMux serves net/http/pprof on its own mux for the -pprof listener,
// keeping the profiling surface off the serving handler entirely.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

type resultJSON struct {
	Class string             `json:"class"`
	Dist  map[string]float64 `json:"dist,omitempty"`
	// MembersEvaluated is set only in -early-exit mode: the ensemble members
	// evaluated before the argmax settled (early exit produces no
	// distribution — it stops before the full one exists).
	MembersEvaluated int `json:"membersEvaluated,omitempty"`
}

func (s *server) classify(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r)
	if e == nil {
		s.noEntry(w, r)
		return
	}
	// tr is nil for unsampled requests; every Trace method accepts that, so
	// the span calls below cost one nil check each when tracing is off.
	tr := obs.TraceFrom(r.Context())
	// One acquire: the whole request is served by this model instance even if
	// a concurrent reload swaps the pointer mid-flight, and a binary model's
	// mapping stays alive until the reference is released.
	am := e.Acquire()
	if am == nil {
		fail(w, http.StatusNotFound, fmt.Errorf("model %q evicted", e.Name))
		return
	}
	defer am.Release()
	classes, numAttrs, catAttrs := am.Model.Schema()

	tr.Begin(obs.SpanDecode)
	body, err := readBody(w, r)
	if err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	tuples, batch, err := modelio.DecodeRequest(body, numAttrs, catAttrs)
	if err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	tr.End(obs.SpanDecode)
	tr.AddTuples(len(tuples))
	s.mtr.observeBatch(len(tuples))
	e.Metrics.Tuples.Add(int64(len(tuples)))
	var results []resultJSON
	preds := make([]int, len(tuples))
	var dists [][]float64
	tr.Begin(obs.SpanClassify)
	if s.earlyExit {
		var evaluated []int
		preds, evaluated = am.Model.PredictBatchEarlyExit(tuples, s.workers)
		s.mtr.observeEarlyExit(evaluated)
		results = make([]resultJSON, len(preds))
		members := 0
		for i, p := range preds {
			members += evaluated[i]
			results[i] = resultJSON{Class: classes[p], MembersEvaluated: evaluated[i]}
		}
		tr.AddMembers(members)
	} else {
		dists = am.Model.ClassifyBatch(tuples, s.workers)
		results = make([]resultJSON, len(dists))
		for i, dist := range dists {
			m := make(map[string]float64, len(dist))
			for c, p := range dist {
				m[classes[c]] = p
			}
			preds[i] = par.Argmax(dist)
			results[i] = resultJSON{Class: classes[preds[i]], Dist: m}
		}
	}
	// Shadow mirror: the candidate generation classifies the same tuples and
	// divergence lands in the entry's counters. Synchronous by design (dists
	// is nil in early-exit mode — argmax comparison only).
	if e.ShadowPath != "" {
		e.ShadowCompare(tuples, preds, dists, s.workers)
	}
	tr.End(obs.SpanClassify)
	tr.Begin(obs.SpanEncode)
	if batch {
		reply(w, map[string]any{"results": results})
	} else {
		reply(w, results[0])
	}
	tr.End(obs.SpanEncode)
}

// readBody reads the whole request body, refusing more than maxBody bytes.
// A Content-Length sizes the buffer up front, so the body is read into one
// allocation rather than a doubling series.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBody {
		// ReadFrom wants MinRead spare bytes before every read, the one
		// that meets EOF included.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxStreamLine bounds one NDJSON input line; a single tuple document
// beyond 1 MiB is malformed, not big.
const maxStreamLine = 1 << 20

// classifyStream handles a classify/stream request against one entry: each
// request line is one tuple document, each response line one result
// object, decoded, classified and flushed as it arrives — the whole stream
// is never resident, so body size is unbounded (per line, maxStreamLine
// applies). A malformed line produces an error object on its line and the
// stream continues; the HTTP status is 200 once the first line has been
// answered, so per-line errors are in-band by design. Response lines are
// modelio.StreamResult documents, the same protocol "udtree predict -format
// ndjson" emits.
//
// Admission is two-layered: the global -max-streams cap guards the worker
// pool against stream floods of any shape, then the entry's MaxStreams
// budget guards one model's share — both refuse with 503 + Retry-After
// instead of queueing.
func (s *server) classifyStream(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r)
	if e == nil {
		s.noEntry(w, r)
		return
	}
	// The active gauges count every stream, capped or not, so /metrics
	// reports stream load even in the default unlimited configuration.
	n := s.activeStreams.Add(1)
	defer s.activeStreams.Add(-1)
	en := e.ActiveStreams.Add(1)
	defer e.ActiveStreams.Add(-1)
	if s.maxStreams > 0 && n > int64(s.maxStreams) {
		s.mtr.streamRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		fail(w, http.StatusServiceUnavailable,
			fmt.Errorf("stream admission: %d streams already active (cap %d); retry shortly", n-1, s.maxStreams))
		return
	}
	if e.MaxStreams > 0 && en > int64(e.MaxStreams) {
		e.Metrics.StreamRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		fail(w, http.StatusServiceUnavailable,
			fmt.Errorf("stream admission: model %q has %d streams active (budget %d); retry shortly", e.Name, en-1, e.MaxStreams))
		return
	}

	// One acquire: the whole stream is classified by one model generation
	// even if a reload swaps the pointer mid-stream; the reference keeps a
	// binary model's mapping alive for the stream's full duration.
	am := e.Acquire()
	if am == nil {
		fail(w, http.StatusNotFound, fmt.Errorf("model %q evicted", e.Name))
		return
	}
	defer am.Release()
	classes, numAttrs, catAttrs := am.Model.Schema()

	// HTTP/1.x is half-duplex by default: the first response write closes
	// the request body, so an interactive client that waits for answer N
	// before sending line N+1 would deadlock. This endpoint is full-duplex
	// by design; the error return is ignored because transports that do not
	// support the upgrade (HTTP/2) are full-duplex already.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()

	w.Header().Set("Content-Type", ndjsonType)
	enc := json.NewEncoder(w)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		out := modelio.StreamResult{Line: line}
		if tu, err := modelio.DecodeWireTuple(raw, numAttrs, catAttrs); err != nil {
			out.Error = fmt.Sprintf("decode: %v", err)
		} else {
			// Count the tuple but keep the batch-size histogram for
			// /classify callers only: a long stream would otherwise drown
			// the size-1 bucket. Stream volume has its own counters.
			s.mtr.tuples.Add(1)
			e.Metrics.Tuples.Add(1)
			if s.earlyExit {
				class, k := am.Model.PredictEarlyExit(tu)
				s.mtr.earlyExitPredictions.Add(1)
				s.mtr.earlyExitMembers.Add(int64(k))
				if e.ShadowPath != "" {
					e.ShadowCompare([]*udt.Tuple{tu}, []int{class}, nil, 1)
				}
				out = modelio.NewStagedResult(line, classes, class, k)
			} else {
				dist := am.Model.Classify(tu)
				if e.ShadowPath != "" {
					e.ShadowCompare([]*udt.Tuple{tu}, []int{par.Argmax(dist)}, [][]float64{dist}, 1)
				}
				out = modelio.NewStreamResult(line, classes, dist)
			}
		}
		s.mtr.streamLines.Add(1)
		if out.Error != "" {
			s.mtr.streamLineErrors.Add(1)
		}
		if err := enc.Encode(out); err != nil {
			return // client went away; nothing to report to
		}
		rc.Flush()
		// The server's -read-timeout/-write-timeout are per-request
		// deadlines, which would cut an interactive stream that simply
		// outlives them; roll both forward per answered line so the
		// timeouts bound idleness, not total stream duration. Errors are
		// ignored: writers that cannot set deadlines (tests, HTTP/2
		// internals) just keep their original ones.
		rc.SetReadDeadline(time.Now().Add(s.streamReadTimeout))
		rc.SetWriteDeadline(time.Now().Add(s.streamWriteTimeout))
	}
	if err := sc.Err(); err != nil {
		// Body read failed mid-stream (oversized line, disconnect): emit a
		// final in-band error object.
		s.mtr.streamLineErrors.Add(1)
		enc.Encode(modelio.StreamResult{Line: line + 1, Error: fmt.Sprintf("read: %v", err)})
	}
}

// reload serves POST reload over the entry's serialised reload path.
func (s *server) reload(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r)
	if e == nil {
		s.noEntry(w, r)
		return
	}
	am, err := e.Reload()
	if err != nil {
		fail(w, http.StatusInternalServerError, fmt.Errorf("reload: %w", err))
		return
	}
	reply(w, map[string]any{
		"status":      "reloaded",
		"name":        e.Name,
		"model":       e.Path,
		"generation":  am.Generation,
		"description": am.Model.Describe(),
	})
}

// modelRemove serves DELETE /v1/models/{model}: the entry leaves the table
// immediately, in-flight requests drain, and the model closes (unmaps) after
// the last of them.
func (s *server) modelRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	if _, err := s.reg.Remove(name); err != nil {
		fail(w, http.StatusNotFound, err)
		return
	}
	s.log.Info("model evicted", "model", name)
	reply(w, map[string]any{"status": "evicted", "name": name})
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r)
	if e == nil && r.PathValue("model") != "" {
		s.noEntry(w, r)
		return
	}
	// Legacy healthz keeps working with no default entry: liveness plus the
	// registry's model names, without per-model fields.
	if e == nil {
		version, commit := cliutil.BuildInfo()
		reply(w, map[string]any{
			"status":    "ok",
			"models":    s.reg.Names(),
			"uptime":    time.Since(s.started).Round(time.Second).String(),
			"version":   version,
			"commit":    commit,
			"goVersion": runtime.Version(),
		})
		return
	}
	am := e.Acquire()
	if am == nil {
		fail(w, http.StatusNotFound, fmt.Errorf("model %q evicted", e.Name))
		return
	}
	defer am.Release()
	classes, _, _ := am.Model.Schema()
	version, commit := cliutil.BuildInfo()
	resp := map[string]any{
		"status":      "ok",
		"name":        e.Name,
		"model":       e.Path,
		"models":      s.reg.Names(),
		"description": am.Model.Describe(),
		"generation":  am.Generation,
		"loadedAt":    am.LoadedAt.UTC().Format(time.RFC3339),
		"classes":     classes,
		"uptime":      time.Since(s.started).Round(time.Second).String(),
		"version":     version,
		"commit":      commit,
		"goVersion":   runtime.Version(),
		// The on-disk container the model was loaded from: "json" or
		// "binary" (mmap-served). Operators verifying a binary rollout read
		// this field.
		"container": am.Model.Format,
		"nodes":     am.Model.Stats().Nodes,
	}
	if e.ShadowPath != "" {
		resp["shadow"] = e.ShadowPath
	}
	// A tree reports as the single-tree document it is stored as; the
	// ensemble fields describe forest containers only.
	if m := am.Model; m.Kind() == forest.KindTree {
		resp["format"] = "tree"
	} else {
		resp["format"] = "forest"
		resp["formatVersion"] = forest.Version
		resp["kind"] = m.Kind()
		resp["trees"] = m.NumTrees()
		if m.Kind() == forest.KindBoosted {
			// Uniform bagged weights carry no information; boosted alphas are
			// the model's vote structure, worth surfacing to operators.
			resp["memberWeights"] = m.Weights()
		}
		if m.OOB.Evaluated > 0 {
			resp["oob"] = m.OOB
		}
	}
	reply(w, resp)
}

// --- metrics -------------------------------------------------------------

// batchBuckets is the number of power-of-two batch-size histogram buckets:
// 1, 2, 3-4, 5-8, ..., the last bucket collecting everything beyond 2^13.
const batchBuckets = 15

// metrics holds the server-wide counters the handlers bump; the endpoint
// accounting lives on the route table and the per-model accounting on each
// registry entry.
type metrics struct {
	tuples atomic.Int64
	// batchTuples counts only the tuples recorded by observeBatch (tuples
	// minus the stream endpoint's), so it is the exact sum of the batch-size
	// histogram — which the Prometheus view needs for its _sum series.
	batchTuples atomic.Int64
	batch       [batchBuckets]atomic.Int64

	streamLines      atomic.Int64 // NDJSON lines answered (results + errors)
	streamLineErrors atomic.Int64 // NDJSON lines answered with an error object
	streamRejected   atomic.Int64 // streams refused by -max-streams admission control
	watchReloads     atomic.Int64 // successful -watch hot reloads
	watchErrors      atomic.Int64 // failed -watch reload attempts

	earlyExitPredictions atomic.Int64 // predictions served in -early-exit mode
	earlyExitMembers     atomic.Int64 // ensemble members evaluated across them
}

// observeEarlyExit records one early-exit batch's members-evaluated counts.
func (m *metrics) observeEarlyExit(evaluated []int) {
	var members int64
	for _, k := range evaluated {
		members += int64(k)
	}
	m.earlyExitPredictions.Add(int64(len(evaluated)))
	m.earlyExitMembers.Add(members)
}

// observeBatch records one classify call of n tuples.
func (m *metrics) observeBatch(n int) {
	if n <= 0 {
		return
	}
	m.tuples.Add(int64(n))
	m.batchTuples.Add(int64(n))
	b := bits.Len(uint(n - 1)) // 1→0, 2→1, 3-4→2, 5-8→3, ...
	if b >= batchBuckets {
		b = batchBuckets - 1
	}
	m.batch[b].Add(1)
}

// bucketLabel renders histogram bucket b's tuple-count range.
func bucketLabel(b int) string {
	if b == 0 {
		return "1"
	}
	if b == batchBuckets-1 {
		return fmt.Sprintf("%d+", (1<<(b-1))+1)
	}
	lo, hi := (1<<(b-1))+1, 1<<b
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// export declares every /metrics series once, in both dialects: its place
// in the JSON document and its Prometheus family. Families render in
// declaration order; their names and labels are scrape-target API, pinned
// by testdata/prom_families.golden (renaming one breaks dashboards).
func (s *server) export(x *obs.Export) {
	root := x.Obj()
	version, commit := cliutil.BuildInfo()
	x.BuildInfo(root, "build", "udt_build_info", version, commit)
	x.Uptime("udt_uptime_seconds", "Seconds since the server started.", s.started)
	// 0 when the registry has no default; the series exists either way.
	var gen int64
	if e := s.reg.Default(); e != nil {
		gen = e.Generation()
	}
	x.Gauge("udt_model_generation", "Default model generation (1 at startup, +1 per reload).").
		Value(root, "generation", gen)

	reqs := x.Counter("udt_requests_total", "Requests served, by endpoint.")
	errs := x.Counter("udt_request_errors_total", "Responses with status >= 400, by endpoint.")
	lat := x.Histogram("udt_request_latency_seconds", "Handler latency, by endpoint.")
	for _, rt := range s.routes {
		rt.em.Declare(x.Obj("endpoints"), rt.name, reqs, errs, lat, obs.Label{Key: "endpoint", Value: rt.name})
	}

	x.Counter("udt_tuples_classified_total", "Tuples classified across /classify and /classify/stream.").
		Value(root, "tuplesClassified", s.mtr.tuples.Load())
	// Batch sizes: JSON counts the non-empty buckets by tuple range; the
	// exposition's bucket b has upper bound 2^b tuples, the last array slot
	// being the overflow.
	sizes := map[string]int64{}
	batch := obs.Hist{
		UpperBounds: make([]float64, batchBuckets-1),
		Counts:      make([]int64, batchBuckets),
		Sum:         float64(s.mtr.batchTuples.Load()),
	}
	for b := range s.mtr.batch {
		if b < batchBuckets-1 {
			batch.UpperBounds[b] = float64(int64(1) << b)
		}
		if batch.Counts[b] = s.mtr.batch[b].Load(); batch.Counts[b] > 0 {
			sizes[bucketLabel(b)] = batch.Counts[b]
		}
	}
	x.Histogram("udt_batch_size", "Tuples per /classify request.").Hist(root, "batchSizes", sizes, batch)

	stream := x.Obj("stream")
	x.Counter("udt_stream_lines_total", "NDJSON stream lines answered (results plus errors).").
		Value(stream, "lines", s.mtr.streamLines.Load())
	x.Counter("udt_stream_line_errors_total", "NDJSON stream lines answered with an error object.").
		Value(stream, "lineErrors", s.mtr.streamLineErrors.Load())
	x.Counter("udt_streams_rejected_total", "Streams refused by -max-streams admission control.").
		Value(stream, "rejected", s.mtr.streamRejected.Load())
	x.Gauge("udt_streams_active", "Currently open /classify/stream requests.").
		Value(stream, "active", s.activeStreams.Load())
	watch := x.Obj("watch")
	x.Counter("udt_watch_reloads_total", "Successful -watch hot reloads.").
		Value(watch, "reloads", s.mtr.watchReloads.Load())
	x.Counter("udt_watch_errors_total", "Failed -watch reload attempts.").
		Value(watch, "errors", s.mtr.watchErrors.Load())
	early := x.Obj("earlyExit")
	early["enabled"] = s.earlyExit
	x.Counter("udt_early_exit_predictions_total", "Predictions served in -early-exit mode.").
		Value(early, "predictions", s.mtr.earlyExitPredictions.Load())
	x.Counter("udt_early_exit_members_total", "Ensemble members evaluated across early-exit predictions.").
		Value(early, "membersEvaluated", s.mtr.earlyExitMembers.Load())
	reg := x.Obj("registry")
	reg["default"] = s.reg.DefaultName()
	x.Gauge("udt_registry_models", "Models currently served by the registry.").
		Value(reg, "models", int64(s.reg.Len()))

	// Per-model families: the second accounting dimension, one series per
	// registry entry (x endpoint for the middleware-fed request metrics).
	// Declared ahead of the entries, so an emptied registry still lists
	// them, and "models" is an empty object then.
	mreqs := x.Counter("udt_model_requests_total", "Requests served, by model and endpoint.")
	merrs := x.Counter("udt_model_request_errors_total", "Responses with status >= 400, by model and endpoint.")
	mlat := x.Histogram("udt_model_request_latency_seconds", "Handler latency, by model and endpoint.")
	mtuples := x.Counter("udt_model_tuples_total", "Tuples classified, by model.")
	mgen := x.Gauge("udt_registry_generation", "Model generation, by model (1 at load, +1 per reload).")
	mstrAct := x.Gauge("udt_model_streams_active", "Currently open streams, by model.")
	mstrRej := x.Counter("udt_model_streams_rejected_total", "Streams refused by the model's stream budget.")
	mshCmp := x.Counter("udt_model_shadow_comparisons_total", "Tuples mirrored to the model's shadow generation.")
	mshArg := x.Counter("udt_model_shadow_argmax_divergence_total", "Mirrored tuples whose predicted class diverged.")
	mshDist := x.Counter("udt_model_shadow_dist_divergence_total", "Mirrored tuples whose distribution diverged.")
	x.Obj("models")
	for _, e := range s.reg.Entries() {
		ml := obs.Label{Key: "model", Value: e.Name}
		doc := x.Obj("models", e.Name)
		e.Metrics.Classify.Declare(doc, "classify", mreqs, merrs, mlat, ml, obs.Label{Key: "endpoint", Value: "classify"})
		e.Metrics.Stream.Declare(doc, "classifyStream", mreqs, merrs, mlat, ml, obs.Label{Key: "endpoint", Value: "classifyStream"})
		mtuples.Value(doc, "tuples", e.Metrics.Tuples.Load(), ml)
		mgen.Value(doc, "generation", e.Generation(), ml)
		streams := x.Obj("models", e.Name, "streams")
		mstrAct.Value(streams, "active", e.ActiveStreams.Load(), ml)
		mstrRej.Value(streams, "rejected", e.Metrics.StreamRejected.Load(), ml)
		streams["budget"] = int64(e.MaxStreams)
		// A model without a shadow reports its (zero) shadow series to
		// Prometheus only; JSON has no shadow object for it.
		var shadow map[string]any
		if e.ShadowPath != "" {
			shadow = x.Obj("models", e.Name, "shadow")
			shadow["path"] = e.ShadowPath
		}
		mshCmp.Value(shadow, "comparisons", e.Metrics.ShadowComparisons.Load(), ml)
		mshArg.Value(shadow, "argmaxDivergence", e.Metrics.ShadowArgmaxDivergence.Load(), ml)
		mshDist.Value(shadow, "distDivergence", e.Metrics.ShadowDistDivergence.Load(), ml)
	}

	trace := x.Obj("trace")
	trace["sampleEvery"] = s.mw.SampleEvery
	x.Counter("udt_trace_sampled_total", "Requests traced by -trace-sample.").
		Value(trace, "sampled", s.mw.Sampled())
	spans := x.Histogram("udt_trace_span_latency_seconds", "Per-span latency of sampled requests.")
	for k := obs.SpanKind(0); k < obs.NumSpans; k++ {
		doc := x.Obj("trace", "spans", k.String())
		ns := s.mw.SpanTotalNanos(k)
		doc["totalMicros"] = ns / 1e3
		snap := s.mw.SpanSnapshot(k)
		spans.Hist(doc, "latency", snap, obs.HistFromLatency(snap, float64(ns)/1e9, obs.Label{Key: "span", Value: k.String()}))
	}

	rt := s.rt.Snapshot()
	run := x.Obj("runtime")
	x.Gauge("udt_go_goroutines", "Live goroutines.").Value(run, "goroutines", int64(rt.Goroutines))
	x.Gauge("udt_go_heap_alloc_bytes", "Bytes of allocated heap objects.").Value(run, "heapAllocBytes", int64(rt.HeapAllocBytes))
	x.Gauge("udt_go_heap_sys_bytes", "Heap memory obtained from the OS.").Value(run, "heapSysBytes", int64(rt.HeapSysBytes))
	x.Gauge("udt_go_heap_objects", "Live heap objects.").Value(run, "heapObjects", int64(rt.HeapObjects))
	x.Counter("udt_go_gc_cycles_total", "Completed GC cycles.").Value(run, "gcCycles", rt.GCCycles)
	run["gcPauseTotalMicros"] = rt.GCPauseTotalMicros
	x.Histogram("udt_go_gc_pause_seconds", "Stop-the-world GC pause durations.").
		Hist(run, "gcPauses", rt.GCPauses, obs.HistFromLatency(rt.GCPauses, float64(rt.GCPauseTotalMicros)/1e6))
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonType)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already gone; nothing left to do but log.
		fmt.Fprintln(os.Stderr, "udtserve: encode response:", err)
	}
}

// fail writes a JSON error body carrying the request ID stamped by the obs
// middleware, so a client log line and a server metric line correlate.
func fail(w http.ResponseWriter, code int, err error) {
	obs.Fail(w, code, err)
}
