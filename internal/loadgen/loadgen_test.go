package loadgen

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"udt/internal/data"
	"udt/internal/latency"
	"udt/internal/modelio"
)

const sampleCSV = `x,y,class
0.2,1@0.5;2@0.3;3@0.2,lo
9.2,12;13;14,hi
4.5,2@0.25;3@0.5;4@0.25,lo
`

func mustPayloads(t *testing.T) *Payloads {
	t.Helper()
	p, err := PayloadsFromCSV(strings.NewReader(sampleCSV), "sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPayloadsFromCSV: every document must be a wire tuple the shared
// decoder accepts, with point pdfs as bare numbers and sampled pdfs as
// {"xs","masses"} objects.
func TestPayloadsFromCSV(t *testing.T) {
	p := mustPayloads(t)
	if len(p.Docs) != 3 {
		t.Fatalf("%d docs, want 3", len(p.Docs))
	}
	num := []data.Attribute{{Name: "x", Kind: data.Numeric}, {Name: "y", Kind: data.Numeric}}
	for i, doc := range p.Docs {
		if _, err := modelio.DecodeWireTuple(doc, num, nil); err != nil {
			t.Fatalf("doc %d: %v (%s)", i, err, doc)
		}
	}
	// Column x of row 0 is a point: it must encode as a bare number, not a
	// one-sample object.
	if !strings.HasPrefix(string(p.Docs[0]), `{"num":[0.2,{`) {
		t.Fatalf("doc 0 = %s", p.Docs[0])
	}
}

func TestPayloadsFromCSVErrors(t *testing.T) {
	for name, csv := range map[string]string{
		"empty":       "",
		"header only": "x,y,class\n",
		"one column":  "class\nlo\n",
		"bad cell":    "x,class\nnot-a-number,lo\n",
		"ragged row":  "x,y,class\n1,2,lo\n3,hi\n",
	} {
		if _, err := PayloadsFromCSV(strings.NewReader(csv), name); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestSamplerDeterminism: the same seed must yield the identical request
// sequence (class and body), the property the report's seed field promises.
func TestSamplerDeterminism(t *testing.T) {
	p := mustPayloads(t)
	mix := Mix{Single: 1, Batch: 1, Stream: 1}
	s1, err := newSampler(42, p)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newSampler(42, p)
	s3, _ := newSampler(43, p)
	diverged := false
	for i := 0; i < 200; i++ {
		c1, b1, _, _ := s1.draw(mix, 4, 8)
		c2, b2, _, _ := s2.draw(mix, 4, 8)
		c3, b3, _, _ := s3.draw(mix, 4, 8)
		if c1 != c2 || string(b1) != string(b2) {
			t.Fatalf("draw %d: same seed diverged (%s vs %s)", i, c1, c2)
		}
		if c1 != c3 || string(b1) != string(b3) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged over 200 draws")
	}
}

// stubServer fakes the udtserve surface loadgen consumes: /classify,
// /classify/stream, and /metrics with a latency histogram.
type stubServer struct {
	tuples  atomic.Int64
	classes atomic.Int64
	hist    latency.AtomicHist
	reject  atomic.Bool
}

func (s *stubServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		if s.reject.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		var body struct {
			Tuples []json.RawMessage `json:"tuples"`
		}
		raw, _ := json.Marshal(map[string]string{"class": "lo"})
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := int64(len(body.Tuples))
		if n == 0 {
			n = 1 // single-tuple document
		}
		s.tuples.Add(n)
		s.classes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
		s.hist.Observe(time.Since(begin))
	})
	mux.HandleFunc("POST /classify/stream", func(w http.ResponseWriter, r *http.Request) {
		if s.reject.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		sc := bufio.NewScanner(r.Body)
		line := 0
		enc := json.NewEncoder(w)
		for sc.Scan() {
			line++
			s.tuples.Add(1)
			enc.Encode(map[string]any{"line": line, "class": "lo"})
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"tuplesClassified": s.tuples.Load(),
			"earlyExit":        map[string]any{"enabled": true, "predictions": s.tuples.Load(), "membersEvaluated": 3 * s.tuples.Load()},
			"endpoints": map[string]any{
				"classify": map[string]any{"requests": s.classes.Load(), "errors": 0, "latency": s.hist.Snapshot()},
			},
		})
	})
	return mux
}

// TestRun: a short run against the stub must account for every arrival,
// carry per-class latency summaries, and report consistent server deltas.
func TestRun(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	cfg := Config{
		BaseURL:     ts.URL,
		QPS:         400,
		Duration:    250 * time.Millisecond,
		Seed:        7,
		Mix:         Mix{Single: 0.6, Batch: 0.25, Stream: 0.15},
		BatchSize:   4,
		StreamLines: 6,
		Client:      ts.Client(),
	}
	rep, err := Run(context.Background(), cfg, mustPayloads(t))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Requests
	if c.Sent+c.Dropped == 0 || c.OK == 0 {
		t.Fatalf("requests = %+v", c)
	}
	if c.OK+c.Errors+c.Rejected != c.Sent {
		t.Fatalf("outcomes do not sum: %+v", c)
	}
	if c.Errors != 0 || c.Rejected != 0 {
		t.Fatalf("stub produced failures: %+v", c)
	}
	all := rep.Latency["all"]
	if all == nil || all.Count != c.OK {
		t.Fatalf("latency[all] = %+v, want count %d", all, c.OK)
	}
	if all.P50Micros > all.P95Micros || all.P95Micros > all.P99Micros || all.P99Micros > all.MaxMicros {
		t.Fatalf("percentiles not monotonic: %+v", all)
	}
	if rep.Server == nil {
		t.Fatal("no server delta")
	}
	if rep.Server.TuplesClassified <= 0 {
		t.Fatalf("server tuple delta = %d", rep.Server.TuplesClassified)
	}
	if rep.Server.EarlyExit == nil || rep.Server.EarlyExit.MembersEvaluated != 3*rep.Server.EarlyExit.Predictions {
		t.Fatalf("early-exit delta = %+v", rep.Server.EarlyExit)
	}
	if rep.Server.ClassifyLatency == nil {
		t.Fatal("no server classify histogram")
	}
	if err := rep.Server.ClassifyLatency.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.CrossCheck == nil {
		t.Fatal("no latency cross-check")
	}
	if rep.CrossCheck.ClientP95Micros <= 0 || rep.CrossCheck.BucketDistance < 0 {
		t.Fatalf("cross-check = %+v", rep.CrossCheck)
	}

	// The report must survive its own wire format.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests {
		t.Fatalf("round-trip requests %+v != %+v", back.Requests, rep.Requests)
	}
}

// TestRunRejections: 503 responses must land in Rejected, not Errors.
func TestRunRejections(t *testing.T) {
	stub := &stubServer{}
	stub.reject.Store(true)
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		QPS:      200,
		Duration: 100 * time.Millisecond,
		Client:   ts.Client(),
	}, mustPayloads(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests.Rejected == 0 || rep.Requests.OK != 0 || rep.Requests.Errors != 0 {
		t.Fatalf("requests = %+v, want everything rejected", rep.Requests)
	}
}

// TestRunValidation: degenerate configurations must fail with clean errors
// before any traffic is sent.
func TestRunValidation(t *testing.T) {
	p := mustPayloads(t)
	ctx := context.Background()
	for name, cfg := range map[string]Config{
		"no url":        {QPS: 10, Duration: time.Second},
		"zero qps":      {BaseURL: "http://x", Duration: time.Second},
		"negative qps":  {BaseURL: "http://x", QPS: -5, Duration: time.Second},
		"zero duration": {BaseURL: "http://x", QPS: 10},
		"negative mix":  {BaseURL: "http://x", QPS: 10, Duration: time.Second, Mix: Mix{Single: -1, Batch: 2}},
		"negative batch": {BaseURL: "http://x", QPS: 10, Duration: time.Second,
			BatchSize: -3},
	} {
		if _, err := Run(ctx, cfg, p); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", QPS: 10, Duration: time.Second}, &Payloads{}); err == nil {
		t.Error("empty payload pool: no error")
	}
}

// TestDecodeReportRejects: structurally valid JSON with inconsistent content
// must not decode.
func TestDecodeReportRejects(t *testing.T) {
	valid := &Report{
		SchemaVersion: SchemaVersion,
		Requests:      Counts{Sent: 10, OK: 8, Errors: 1, Rejected: 1},
		Latency: map[string]*Summary{
			"all": {Count: 8, MeanMicros: 100, P50Micros: 90, P95Micros: 200, P99Micros: 300, MaxMicros: 400},
		},
	}
	blob, _ := json.Marshal(valid)
	if _, err := DecodeReport(blob); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*Report)) []byte {
		var r Report
		json.Unmarshal(blob, &r)
		f(&r)
		out, _ := json.Marshal(&r)
		return out
	}
	for name, b := range map[string][]byte{
		"not json":      []byte("{"),
		"wrong version": mutate(func(r *Report) { r.SchemaVersion = SchemaVersion + 1 }),
		"negative sent": mutate(func(r *Report) { r.Requests.Sent = -1 }),
		"bad sum":       mutate(func(r *Report) { r.Requests.OK = 99 }),
		"percentiles":   mutate(func(r *Report) { r.Latency["all"].P95Micros = 1 }),
		"null summary":  mutate(func(r *Report) { r.Latency["x"] = nil }),
		"negative delta": mutate(func(r *Report) {
			r.Server = &ServerDelta{TuplesClassified: -1}
		}),
	} {
		if _, err := DecodeReport(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// modelStub records per-model and legacy-route hits behind both the legacy
// and /v1/models/{model}/ surfaces.
type modelStub struct {
	legacy atomic.Int64
	hits   sync.Map // model name -> *atomic.Int64
}

func (s *modelStub) bump(model string) {
	v, _ := s.hits.LoadOrStore(model, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

func (s *modelStub) count(model string) int64 {
	v, ok := s.hits.Load(model)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

func (s *modelStub) handler() http.Handler {
	classify := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"class":"lo"}`))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", func(w http.ResponseWriter, r *http.Request) {
		s.legacy.Add(1)
		classify(w, r)
	})
	mux.HandleFunc("POST /v1/models/{model}/classify", func(w http.ResponseWriter, r *http.Request) {
		s.bump(r.PathValue("model"))
		classify(w, r)
	})
	mux.HandleFunc("POST /v1/models/{model}/classify/stream", func(w http.ResponseWriter, r *http.Request) {
		s.bump(r.PathValue("model"))
		sc := bufio.NewScanner(r.Body)
		enc := json.NewEncoder(w)
		line := 0
		for sc.Scan() {
			line++
			enc.Encode(map[string]any{"line": line, "class": "lo"})
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"tuplesClassified":0,"endpoints":{}}`))
	})
	return mux
}

// TestRunModelMix: with a per-model mix every request goes to the named
// routes, weights steer the split, and the report carries per-model latency
// keys; without a mix the legacy route serves everything.
func TestRunModelMix(t *testing.T) {
	stub := &modelStub{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	cfg := Config{
		BaseURL:     ts.URL,
		QPS:         400,
		Duration:    250 * time.Millisecond,
		Seed:        11,
		Mix:         Mix{Single: 0.8, Stream: 0.2},
		StreamLines: 4,
		Models:      map[string]float64{"alpha": 3, "beta": 1},
		Client:      ts.Client(),
	}
	rep, err := Run(context.Background(), cfg, mustPayloads(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests.OK == 0 || rep.Requests.Errors != 0 {
		t.Fatalf("requests = %+v", rep.Requests)
	}
	if got := stub.legacy.Load(); got != 0 {
		t.Fatalf("legacy route hit %d times under a model mix", got)
	}
	a, b := stub.count("alpha"), stub.count("beta")
	if a == 0 || b == 0 {
		t.Fatalf("model split alpha=%d beta=%d: both must receive traffic", a, b)
	}
	if a <= b {
		t.Fatalf("model split alpha=%d beta=%d: 3:1 weights inverted", a, b)
	}
	la, lb := rep.Latency["model:alpha"], rep.Latency["model:beta"]
	if la == nil || lb == nil || la.Count != a || lb.Count != b {
		t.Fatalf("per-model latency keys = alpha %+v (server %d), beta %+v (server %d)", la, a, lb, b)
	}
	if rep.Config.Models["alpha"] != 3 {
		t.Fatalf("report config models = %v", rep.Config.Models)
	}

	// Without a mix: all legacy, no model latency keys.
	stub2 := &modelStub{}
	ts2 := httptest.NewServer(stub2.handler())
	defer ts2.Close()
	cfg2 := cfg
	cfg2.BaseURL = ts2.URL
	cfg2.Models = nil
	cfg2.Client = ts2.Client()
	rep2, err := Run(context.Background(), cfg2, mustPayloads(t))
	if err != nil {
		t.Fatal(err)
	}
	if stub2.legacy.Load() == 0 {
		t.Fatal("legacy route never hit without a model mix")
	}
	for key := range rep2.Latency {
		if strings.HasPrefix(key, "model:") {
			t.Fatalf("unexpected latency key %q without a model mix", key)
		}
	}
}

// TestRunMultiTarget: arrivals fan out round-robin across all targets.
func TestRunMultiTarget(t *testing.T) {
	s1, s2 := &modelStub{}, &modelStub{}
	t1 := httptest.NewServer(s1.handler())
	defer t1.Close()
	t2 := httptest.NewServer(s2.handler())
	defer t2.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  t1.URL,
		Targets:  []string{t1.URL, t2.URL},
		QPS:      400,
		Duration: 250 * time.Millisecond,
		Seed:     3,
	}, mustPayloads(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests.OK == 0 || rep.Requests.Errors != 0 {
		t.Fatalf("requests = %+v", rep.Requests)
	}
	h1, h2 := s1.legacy.Load(), s2.legacy.Load()
	if h1 == 0 || h2 == 0 {
		t.Fatalf("fan-out split = %d / %d: both targets must receive traffic", h1, h2)
	}
	if diff := h1 - h2; diff < -1 || diff > 1 {
		t.Fatalf("round-robin split %d / %d not balanced", h1, h2)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("report targets = %v", rep.Targets)
	}

	// Validation: empty target URL and bad model weights are refused.
	if _, err := Run(context.Background(), Config{BaseURL: t1.URL, Targets: []string{""}, QPS: 10, Duration: time.Second}, mustPayloads(t)); err == nil {
		t.Error("empty target accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: t1.URL, QPS: 10, Duration: time.Second, Models: map[string]float64{"a": -1}}, mustPayloads(t)); err == nil {
		t.Error("negative model weight accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: t1.URL, QPS: 10, Duration: time.Second, Models: map[string]float64{"a": 0}}, mustPayloads(t)); err == nil {
		t.Error("all-zero model mix accepted")
	}
}
