package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"udt"
	"udt/internal/forest"
	"udt/internal/modelio"
	"udt/internal/registry"
)

// trainCSV mirrors the cmd/udtree fixture: a mixed point/pdf dataset whose
// two classes are cleanly separable.
const trainCSV = `x,y,class
0.1,1;2;3,lo
0.2,2;3;4,lo
0.3,1;3;5,lo
0.4,2;2;3,lo
9.1,11;12;13,hi
9.2,12;13;14,hi
9.3,11;13;15,hi
9.4,12;12;13,hi
`

// trainModel performs exactly what "udtree train" does — CSV in, tree
// built, JSON model out — and returns the model path.
func trainModel(t *testing.T) string {
	t.Helper()
	ds, err := udt.ReadCSV(strings.NewReader(trainCSV), "train")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := udt.Build(ds, udt.Config{MinWeight: 1, PostPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTrainServeClassifyRoundTrip is the train -> serve -> classify
// integration test: a model trained from CSV, written to disk in udtree's
// JSON format, loaded and compiled by the server, and queried over HTTP
// with single and batch bodies.
func TestTrainServeClassifyRoundTrip(t *testing.T) {
	s, err := newServer(trainModel(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Single tuple: a point x and a pdf y deep in "lo" territory.
	res := postJSON(t, ts.URL+"/classify", `{"num": [0.2, {"xs": [1, 2, 4], "masses": [1, 1, 1]}]}`)
	var single struct {
		Class string             `json:"class"`
		Dist  map[string]float64 `json:"dist"`
	}
	decodeBody(t, res, http.StatusOK, &single)
	if single.Class != "lo" {
		t.Fatalf("single classification = %q, want lo", single.Class)
	}
	if sum := single.Dist["lo"] + single.Dist["hi"]; sum < 0.999 || sum > 1.001 {
		t.Fatalf("distribution does not sum to 1: %v", single.Dist)
	}

	// Batch: one per class, plus raw-measurement and missing-value styles.
	res = postJSON(t, ts.URL+"/classify", `{"tuples": [
		{"num": [0.15, [1, 2, 3, 2]]},
		{"num": [9.2, 12.5]},
		{"num": [null, [11, 13, 15]]}
	]}`)
	var batch struct {
		Results []struct {
			Class string             `json:"class"`
			Dist  map[string]float64 `json:"dist"`
		} `json:"results"`
	}
	decodeBody(t, res, http.StatusOK, &batch)
	if len(batch.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(batch.Results))
	}
	for i, want := range []string{"lo", "hi", "hi"} {
		if got := batch.Results[i].Class; got != want {
			t.Fatalf("batch tuple %d classified %q, want %q", i, got, want)
		}
	}

	// Health endpoint reports the model.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string   `json:"status"`
		Classes []string `json:"classes"`
		Nodes   int      `json:"nodes"`
	}
	decodeBody(t, hres, http.StatusOK, &health)
	if health.Status != "ok" || health.Nodes < 1 || len(health.Classes) != 2 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestServerMatchesLibrary: the HTTP path must agree with direct library
// classification on the training tuples.
func TestServerMatchesLibrary(t *testing.T) {
	path := trainModel(t)
	s, err := newServer(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ds, err := udt.ReadCSV(strings.NewReader(trainCSV), "train")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tree udt.Tree
	if err := json.Unmarshal(blob, &tree); err != nil {
		t.Fatal(err)
	}
	for i, tu := range ds.Tuples {
		want := tree.Classes[tree.Predict(tu)]
		// Re-encode the tuple through the wire format.
		var parts []string
		for _, p := range tu.Num {
			if p.NumSamples() == 1 {
				parts = append(parts, fmt.Sprintf("%g", p.Mean()))
				continue
			}
			var xs []string
			for k := 0; k < p.NumSamples(); k++ {
				xs = append(xs, fmt.Sprintf("%g", p.X(k)))
			}
			parts = append(parts, "["+strings.Join(xs, ",")+"]")
		}
		body := `{"num": [` + strings.Join(parts, ",") + `]}`
		res := postJSON(t, ts.URL+"/classify", body)
		var got struct {
			Class string `json:"class"`
		}
		decodeBody(t, res, http.StatusOK, &got)
		if got.Class != want {
			t.Fatalf("tuple %d: server says %q, library says %q", i, got.Class, want)
		}
	}
}

func TestClassifyBadRequests(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	cases := map[string]string{
		"not json":           `{`,
		"unknown field":      `{"bogus": 1}`,
		"wrong arity":        `{"num": [1]}`,
		"mixed single+batch": `{"num": [1, 2], "tuples": []}`,
		"bad pdf object":     `{"num": [{"xs": [1], "masses": []}, 2]}`,
		"non-number value":   `{"num": ["abc", 2]}`,
		// encoding/json would accept these: the first two half-read the body,
		// the third decodes null as 0, the fourth is last-wins.
		"trailing junk":          `{"num": [0.2, [1, 2, 3]]} trailing junk`,
		"concatenated documents": `{"num": [0.2, [1, 2, 3]]}{"num": [9, 9]}`,
		"null in number array":   `{"num": [0.2, [1, null, 3]]}`,
		"repeated key":           `{"num": [0.2, [1, 2, 3]], "NUM": [9, 9]}`,
	}
	for name, body := range cases {
		res := postJSON(t, ts.URL+"/classify", body)
		var e struct {
			Error string `json:"error"`
		}
		decodeBody(t, res, http.StatusBadRequest, &e)
		if e.Error == "" {
			t.Errorf("%s: no error message", name)
		}
	}
	// A refused number or key is quoted in part, however long it is.
	long := strings.Repeat("0", 1<<20)
	for name, body := range map[string]string{
		"1 MiB number": `{"num": [1` + long + `, 2]}`,
		"1 MiB key":    `{"` + long + `": 1}`,
	} {
		res := postJSON(t, ts.URL+"/classify", body)
		blob, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusBadRequest || len(blob) > 512 {
			t.Errorf("%s: status %d with a %d-byte body, want 400 with a short one", name, res.StatusCode, len(blob))
		}
	}
	// Wrong method and wrong path 404/405.
	res, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode == http.StatusOK {
		t.Error("GET /classify should not succeed")
	}
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{}); err == nil || !strings.Contains(err.Error(), "-model is required") {
		t.Errorf("missing -model: %v", err)
	}
	if err := run(ctx, []string{"-model", "m.json", "-workers", "0"}); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Errorf("bad -workers: %v", err)
	}
	if err := run(ctx, []string{"-model", "/nonexistent/model.json"}); err == nil {
		t.Error("missing model file not caught")
	}
}

// TestRunServesAndShutsDown boots the real server on an ephemeral port and
// cancels the context: run must return cleanly (graceful shutdown).
func TestRunServesAndShutsDown(t *testing.T) {
	path := trainModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-model", path, "-addr", "127.0.0.1:0"}) }()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down after cancel")
	}
}

// trainForestModel trains a bagged forest on the shared CSV fixture and
// writes the versioned container to dir.
func trainForestModel(t *testing.T, dir string, trees int) string {
	t.Helper()
	ds, err := udt.ReadCSV(strings.NewReader(trainCSV), "train")
	if err != nil {
		t.Fatal(err)
	}
	f, err := udt.TrainForest(ds, udt.ForestConfig{
		Trees: trees, Seed: 5, TreeConfig: udt.Config{MinWeight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "forest.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeForestModel: the server must load a forest container
// transparently, classify through the ensemble, and report forest metadata
// in /healthz.
func TestServeForestModel(t *testing.T) {
	s, err := newServer(trainForestModel(t, t.TempDir(), 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	res := postJSON(t, ts.URL+"/classify", `{"tuples": [
		{"num": [0.2, [1, 2, 3]]},
		{"num": [9.2, [12, 13, 14]]}
	]}`)
	var batch struct {
		Results []struct {
			Class string `json:"class"`
		} `json:"results"`
	}
	decodeBody(t, res, http.StatusOK, &batch)
	if len(batch.Results) != 2 || batch.Results[0].Class != "lo" || batch.Results[1].Class != "hi" {
		t.Fatalf("forest batch = %+v", batch.Results)
	}

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Format        string `json:"format"`
		FormatVersion int    `json:"formatVersion"`
		Kind          string `json:"kind"`
		Trees         int    `json:"trees"`
		Generation    int64  `json:"generation"`
		OOB           *struct {
			Accuracy  float64 `json:"accuracy"`
			Evaluated int     `json:"evaluated"`
		} `json:"oob"`
	}
	decodeBody(t, hres, http.StatusOK, &health)
	if health.Format != "forest" || health.FormatVersion != forest.Version || health.Kind != "bagged" || health.Trees != 7 || health.Generation != 1 {
		t.Fatalf("healthz = %+v", health)
	}
	if health.OOB == nil || health.OOB.Evaluated == 0 {
		t.Fatalf("healthz reports no OOB stats: %+v", health)
	}
}

// TestReloadSwapsModel: POST /reload must swap from a tree to a forest
// model atomically while concurrent classifications keep succeeding — no
// dropped or mixed responses.
func TestReloadSwapsModel(t *testing.T) {
	dir := t.TempDir()
	treePath := trainModel(t)
	modelPath := filepath.Join(dir, "model.json")
	copyFile(t, treePath, modelPath)

	s, err := newServer(modelPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Hammer /classify from several goroutines while models swap below.
	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := http.Post(ts.URL+"/classify", "application/json",
					bytes.NewReader([]byte(`{"num": [0.2, [1, 2, 3]]}`)))
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				var got struct {
					Class string `json:"class"`
				}
				err = json.NewDecoder(res.Body).Decode(&got)
				res.Body.Close()
				if err != nil || res.StatusCode != http.StatusOK || got.Class != "lo" {
					select {
					case errs <- fmt.Errorf("status %d class %q err %v", res.StatusCode, got.Class, err):
					default:
					}
					return
				}
			}
		}()
	}

	// Swap tree -> forest -> tree while traffic flows.
	forestPath := trainForestModel(t, dir, 5)
	wantGen := int64(1)
	for i, src := range []string{forestPath, treePath, forestPath} {
		copyFile(t, src, modelPath)
		res := postJSON(t, ts.URL+"/reload", `{}`)
		var rl struct {
			Status     string `json:"status"`
			Generation int64  `json:"generation"`
		}
		decodeBody(t, res, http.StatusOK, &rl)
		wantGen++
		if rl.Status != "reloaded" || rl.Generation != wantGen {
			t.Fatalf("reload %d: %+v, want generation %d", i, rl, wantGen)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("classification failed during reloads: %v", err)
	default:
	}

	// The active model is now the forest.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Format     string `json:"format"`
		Generation int64  `json:"generation"`
	}
	decodeBody(t, hres, http.StatusOK, &health)
	if health.Format != "forest" || health.Generation != 4 {
		t.Fatalf("after reloads healthz = %+v", health)
	}
}

// TestReloadFailureKeepsModel: a broken model file must fail the reload with
// a 500 and leave the previous model serving.
func TestReloadFailureKeepsModel(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	copyFile(t, trainModel(t), modelPath)
	s, err := newServer(modelPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if err := os.WriteFile(modelPath, []byte(`{"version": 99, "trees": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res := postJSON(t, ts.URL+"/reload", `{}`)
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, res, http.StatusInternalServerError, &e)
	if !strings.Contains(e.Error, "version") {
		t.Fatalf("reload error = %q", e.Error)
	}

	res = postJSON(t, ts.URL+"/classify", `{"num": [0.2, [1, 2, 3]]}`)
	var got struct {
		Class string `json:"class"`
	}
	decodeBody(t, res, http.StatusOK, &got)
	if got.Class != "lo" {
		t.Fatalf("old model no longer serving after failed reload: %+v", got)
	}
}

// TestMetricsEndpoint: counters must reflect the traffic, including the
// batch-size histogram and error counts.
func TestMetricsEndpoint(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// 2 single classifications, 1 batch of 3, 1 bad request.
	postJSON(t, ts.URL+"/classify", `{"num": [0.2, [1, 2, 3]]}`).Body.Close()
	postJSON(t, ts.URL+"/classify", `{"num": [9.2, [12, 13]]}`).Body.Close()
	postJSON(t, ts.URL+"/classify", `{"tuples": [{"num": [1, 2]}, {"num": [2, 3]}, {"num": [3, 4]}]}`).Body.Close()
	postJSON(t, ts.URL+"/classify", `{"bogus": true}`).Body.Close()

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		TuplesClassified int64            `json:"tuplesClassified"`
		BatchSizes       map[string]int64 `json:"batchSizes"`
		Endpoints        map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	decodeBody(t, res, http.StatusOK, &m)
	if m.TuplesClassified != 5 {
		t.Fatalf("tuplesClassified = %d, want 5", m.TuplesClassified)
	}
	if m.BatchSizes["1"] != 2 || m.BatchSizes["3-4"] != 1 {
		t.Fatalf("batchSizes = %v", m.BatchSizes)
	}
	cl := m.Endpoints["classify"]
	if cl.Requests != 4 || cl.Errors != 1 {
		t.Fatalf("classify endpoint stats = %+v", cl)
	}
}

// TestClassifyStreamNDJSON: the streaming endpoint must answer one NDJSON
// line per input line, keep going past a malformed middle line (answering it
// with an in-band error object), and tag the response with the NDJSON
// content type. Runs under -race in CI.
func TestClassifyStreamNDJSON(t *testing.T) {
	s, err := newServer(trainModel(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body := strings.Join([]string{
		`{"num": [0.2, [1, 2, 3]]}`,
		`{"num": [0.2, "not a number"]}`, // malformed: stream must continue
		``,                               // blank line: skipped, numbering preserved
		`{"num": [9.2, [12, 13, 14]]}`,
		`{"num": [1, 2]}{"num": [9, 9]}`, // concatenated docs: refused, not half-accepted
	}, "\n") + "\n"
	res, err := http.Post(ts.URL+"/classify/stream", ndjsonType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != ndjsonType {
		t.Fatalf("Content-Type %q, want %q", ct, ndjsonType)
	}
	var lines []modelio.StreamResult
	dec := json.NewDecoder(res.Body)
	for dec.More() {
		var ln modelio.StreamResult
		if err := dec.Decode(&ln); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ln)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d response lines, want 4: %+v", len(lines), lines)
	}
	if lines[0].Line != 1 || lines[0].Class != "lo" || lines[0].Error != "" {
		t.Errorf("line 1 = %+v", lines[0])
	}
	if lines[1].Line != 2 || lines[1].Error == "" || lines[1].Class != "" {
		t.Errorf("line 2 (malformed) = %+v", lines[1])
	}
	if lines[2].Line != 4 || lines[2].Class != "hi" {
		t.Errorf("line 4 = %+v", lines[2])
	}
	if lines[3].Line != 5 || !strings.Contains(lines[3].Error, "trailing data") {
		t.Errorf("line 5 (concatenated docs) = %+v", lines[3])
	}
	if sum := lines[0].Dist["lo"] + lines[0].Dist["hi"]; sum < 0.999 || sum > 1.001 {
		t.Errorf("line 1 distribution does not sum to 1: %v", lines[0].Dist)
	}

	// The stream counters saw 4 answered lines, 2 of them errors.
	res2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Stream struct {
			Lines      int64 `json:"lines"`
			LineErrors int64 `json:"lineErrors"`
		} `json:"stream"`
		TuplesClassified int64            `json:"tuplesClassified"`
		BatchSizes       map[string]int64 `json:"batchSizes"`
	}
	decodeBody(t, res2, http.StatusOK, &m)
	if m.Stream.Lines != 4 || m.Stream.LineErrors != 2 || m.TuplesClassified != 2 {
		t.Fatalf("stream metrics = %+v, tuples = %d", m.Stream, m.TuplesClassified)
	}
	// Stream lines must not pollute the /classify batch-size histogram.
	if len(m.BatchSizes) != 0 {
		t.Fatalf("stream traffic leaked into batchSizes: %v", m.BatchSizes)
	}
}

// flushingRecorder is a ResponseWriter that records writes and counts Flush
// calls, safe for concurrent inspection while a handler is mid-stream.
type flushingRecorder struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes int
}

func (r *flushingRecorder) Header() http.Header {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.header == nil {
		r.header = http.Header{}
	}
	return r.header
}

func (r *flushingRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(p)
}

func (r *flushingRecorder) WriteHeader(int) {}

func (r *flushingRecorder) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushes++
}

func (r *flushingRecorder) snapshot() (flushes int, body string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushes, r.body.String()
}

// TestClassifyStreamFlushesPerLine: each answered line must be flushed to
// the client before the next input line arrives — the interactive contract
// of the stream endpoint. The handler runs against a pipe body through the
// full instrument wrapper, so this also pins statusRecorder forwarding
// Flush (without it the http.Flusher assertion fails against the wrapper
// and nothing is ever flushed). The Go HTTP client buffers streaming
// request bodies, so this is tested at the handler layer, where delivery
// can be observed mid-request.
func TestClassifyStreamFlushesPerLine(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodPost, "/classify/stream", pr)
	rec := &flushingRecorder{}
	done := make(chan struct{})
	go func() {
		s.handler().ServeHTTP(rec, req)
		close(done)
	}()

	waitFor := func(wantFlushes int, wantClass string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			flushes, body := rec.snapshot()
			if flushes >= wantFlushes && strings.Contains(body, wantClass) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("after input line %d: flushes=%d body=%q (stream not flushing per line)",
					wantFlushes, flushes, body)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if _, err := io.WriteString(pw, `{"num": [0.2, [1, 2, 3]]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	// The first answer must arrive while the request body is still open.
	waitFor(1, `"class":"lo"`)
	if _, err := io.WriteString(pw, `{"num": [9.2, [12, 13, 14]]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(2, `"class":"hi"`)
	pw.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after body EOF")
	}
}

// TestClassifyStreamFullDuplex: over a real HTTP/1.1 connection, answer N
// must reach the client BEFORE line N+1 is sent — the interactive contract.
// This needs a raw chunked client because Go's HTTP client buffers
// streaming request bodies, and it pins EnableFullDuplex: without it the
// server's first response write closes the request body and the exchange
// deadlocks. Runs under -race in CI.
func TestClassifyStreamFullDuplex(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /classify/stream HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nContent-Type: application/x-ndjson\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	chunk := func(s string) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", len(s), s); err != nil {
			t.Fatal(err)
		}
	}
	// readLine skips response headers and chunked framing, returning the
	// next NDJSON object, failing if it does not arrive promptly.
	readLine := func() modelio.StreamResult {
		t.Helper()
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		for {
			raw, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("response line never arrived while request body open (half-duplex regression): %v", err)
			}
			if strings.HasPrefix(raw, "{") {
				var ln modelio.StreamResult
				if err := json.Unmarshal([]byte(raw), &ln); err != nil {
					t.Fatal(err)
				}
				return ln
			}
		}
	}

	chunk(`{"num": [0.2, [1, 2, 3]]}` + "\n")
	if ln := readLine(); ln.Line != 1 || ln.Class != "lo" {
		t.Fatalf("first answer = %+v", ln)
	}
	// Only after the first answer arrived, send the second line.
	chunk(`{"num": [9.2, [12, 13, 14]]}` + "\n")
	if ln := readLine(); ln.Line != 2 || ln.Class != "hi" {
		t.Fatalf("second answer = %+v", ln)
	}
	if _, err := io.WriteString(conn, "0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyStreamMatchesBatch: the NDJSON path must classify identically
// to POST /classify over the same tuples.
func TestClassifyStreamMatchesBatch(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	tuples := []string{
		`{"num": [0.15, [1, 2, 3, 2]]}`,
		`{"num": [9.2, 12.5]}`,
		`{"num": [null, [11, 13, 15]]}`,
	}
	res := postJSON(t, ts.URL+"/classify", `{"tuples": [`+strings.Join(tuples, ",")+`]}`)
	var batch struct {
		Results []struct {
			Class string `json:"class"`
		} `json:"results"`
	}
	decodeBody(t, res, http.StatusOK, &batch)

	res, err = http.Post(ts.URL+"/classify/stream", ndjsonType, strings.NewReader(strings.Join(tuples, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	dec := json.NewDecoder(res.Body)
	for i := 0; dec.More(); i++ {
		var ln modelio.StreamResult
		if err := dec.Decode(&ln); err != nil {
			t.Fatal(err)
		}
		if ln.Class != batch.Results[i].Class {
			t.Errorf("tuple %d: stream %q, batch %q", i, ln.Class, batch.Results[i].Class)
		}
	}
}

// TestAcceptNegotiation: a request that cannot accept the endpoint's content
// type is refused with 406; wildcards and exact types pass.
func TestAcceptNegotiation(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	get := func(url, accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
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
		return res
	}
	for accept, want := range map[string]int{
		"":                      http.StatusOK,
		"*/*":                   http.StatusOK,
		"application/*":         http.StatusOK,
		"application/json":      http.StatusOK,
		"text/html, */*;q=0.1":  http.StatusOK,
		"application/JSON":      http.StatusOK, // media types are case-insensitive
		"text/html":             http.StatusNotAcceptable,
		"application/x-ndjson":  http.StatusNotAcceptable,
		"image/png, text/plain": http.StatusNotAcceptable,
		// q=0 is an explicit refusal (RFC 9110 §12.4.2).
		"application/json;q=0":            http.StatusNotAcceptable,
		"*/*;q=0":                         http.StatusNotAcceptable,
		"application/json;q=0.0, img/png": http.StatusNotAcceptable,
		"text/html;q=0, application/json": http.StatusOK,
		// The most specific matching range governs: an exact-type q=0
		// refusal beats an accepting wildcard, and vice versa.
		"*/*;q=0.1, application/json;q=0": http.StatusNotAcceptable,
		"application/*;q=0, */*":          http.StatusNotAcceptable,
		"application/json, */*;q=0":       http.StatusOK,
	} {
		res := get(ts.URL+"/healthz", accept)
		res.Body.Close()
		if res.StatusCode != want {
			t.Errorf("Accept %q on /healthz: status %d, want %d", accept, res.StatusCode, want)
		}
	}

	// Multiple Accept header lines are combined, not judged on the first.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req2.Header.Add("Accept", "text/html")
	req2.Header.Add("Accept", "application/json")
	res2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Errorf("two Accept lines (html + json): status %d, want 200", res2.StatusCode)
	}

	// The stream endpoint produces NDJSON, not JSON.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/classify/stream", strings.NewReader(`{"num": [1, 2]}`))
	req.Header.Set("Accept", "application/json")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	decodeBody(t, res, http.StatusNotAcceptable, &e)
	if !strings.Contains(e.Error, ndjsonType) || e.RequestID == "" {
		t.Fatalf("406 body = %+v", e)
	}
}

// TestRequestIDs: every response carries an X-Request-Id — echoed when the
// caller set one, generated otherwise — and error bodies repeat it.
func TestRequestIDs(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Generated when absent.
	res := postJSON(t, ts.URL+"/classify", `{"num": [0.2, [1, 2, 3]]}`)
	gen := res.Header.Get("X-Request-Id")
	res.Body.Close()
	if len(gen) != 16 {
		t.Fatalf("generated X-Request-Id = %q, want 16 hex chars", gen)
	}

	// Echoed when present, including on errors, and repeated in the body.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/classify", strings.NewReader(`{"bogus": 1}`))
	req.Header.Set("X-Request-Id", "trace-42")
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Header.Get("X-Request-Id"); got != "trace-42" {
		t.Fatalf("echoed X-Request-Id = %q", got)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	decodeBody(t, res, http.StatusBadRequest, &e)
	if e.RequestID != "trace-42" {
		t.Fatalf("error body requestId = %q, want trace-42", e.RequestID)
	}
}

// TestWatchReload: the -watch poller must notice an mtime change and swap
// the model through the reload path without any operator call.
func TestWatchReload(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	treePath := trainModel(t)
	copyFile(t, treePath, modelPath)
	s, err := newServer(modelPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.watchLoop(ctx, 5*time.Millisecond)

	// Replace the file with a forest; ensure the mtime moves even on coarse
	// filesystem clocks.
	forestPath := trainForestModel(t, dir, 3)
	now := time.Now().Add(time.Second)
	copyFile(t, forestPath, modelPath)
	if err := os.Chtimes(modelPath, now, now); err != nil {
		t.Fatal(err)
	}

	entry := s.reg.Default()
	waitGen := func(want int64) *registry.Active {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if entry.Generation() == want {
				am := entry.Acquire()
				if am.Generation == want {
					return am
				}
				am.Release()
			}
			if time.Now().After(deadline) {
				t.Fatalf("watch poller never reached generation %d (at %d)", want, entry.Generation())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	am := waitGen(2)
	if am.Model.Kind() == forest.KindTree {
		t.Fatalf("watch reloaded the wrong model: %s", am.Model.Describe())
	}
	am.Release()
	if s.mtr.watchReloads.Load() != 1 {
		t.Fatalf("watchReloads = %d", s.mtr.watchReloads.Load())
	}

	// A replace that lands within the filesystem's mtime granularity (same
	// mtime, different size) must still be detected.
	copyFile(t, treePath, modelPath)
	if err := os.Chtimes(modelPath, now, now); err != nil {
		t.Fatal(err)
	}
	am = waitGen(3)
	if am.Model.Kind() != forest.KindTree {
		t.Fatalf("same-mtime replace loaded the wrong model: %s", am.Model.Describe())
	}
	am.Release()
}

// TestWatchFlagValidation: a negative -watch interval is rejected.
func TestWatchFlagValidation(t *testing.T) {
	err := run(context.Background(), []string{"-model", "m.json", "-watch", "-1s"})
	if err == nil || !strings.Contains(err.Error(), "-watch") {
		t.Fatalf("negative -watch: %v", err)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	res, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func decodeBody(t *testing.T, res *http.Response, wantCode int, v any) {
	t.Helper()
	defer res.Body.Close()
	if res.StatusCode != wantCode {
		t.Fatalf("status %d, want %d", res.StatusCode, wantCode)
	}
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
