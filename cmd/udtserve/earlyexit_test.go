package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"udt/internal/latency"
	"udt/internal/modelio"
)

// TestEarlyExitClassify: in -early-exit mode /classify must return the same
// classes as full evaluation with membersEvaluated instead of a
// distribution, and /metrics must aggregate the counters.
func TestEarlyExitClassify(t *testing.T) {
	modelPath := trainBoostedModel(t, t.TempDir())
	full, err := newServer(modelPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	early, err := newServerMode(modelPath, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	tsFull := httptest.NewServer(full.handler())
	defer tsFull.Close()
	tsEarly := httptest.NewServer(early.handler())
	defer tsEarly.Close()

	body := `{"tuples": [
		{"num": [0.2, [1, 2, 3]]},
		{"num": [9.2, [12, 13, 14]]},
		{"num": [null, [2, 3, 4]]}
	]}`
	type result struct {
		Class            string             `json:"class"`
		Dist             map[string]float64 `json:"dist"`
		MembersEvaluated int                `json:"membersEvaluated"`
	}
	var fullResp, earlyResp struct {
		Results []result `json:"results"`
	}
	decodeBody(t, postJSON(t, tsFull.URL+"/classify", body), http.StatusOK, &fullResp)
	decodeBody(t, postJSON(t, tsEarly.URL+"/classify", body), http.StatusOK, &earlyResp)
	if len(earlyResp.Results) != len(fullResp.Results) {
		t.Fatalf("%d early results, %d full", len(earlyResp.Results), len(fullResp.Results))
	}
	members := 0
	for i, er := range earlyResp.Results {
		if er.Class != fullResp.Results[i].Class {
			t.Fatalf("tuple %d: early exit %q, full %q", i, er.Class, fullResp.Results[i].Class)
		}
		if er.Dist != nil {
			t.Fatalf("tuple %d: early exit carried a distribution %v", i, er.Dist)
		}
		if er.MembersEvaluated < 1 {
			t.Fatalf("tuple %d: membersEvaluated = %d", i, er.MembersEvaluated)
		}
		members += er.MembersEvaluated
		if fullResp.Results[i].MembersEvaluated != 0 {
			t.Fatalf("tuple %d: full evaluation reported membersEvaluated", i)
		}
	}

	res, err := http.Get(tsEarly.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mtr struct {
		EarlyExit struct {
			Enabled          bool  `json:"enabled"`
			Predictions      int64 `json:"predictions"`
			MembersEvaluated int64 `json:"membersEvaluated"`
		} `json:"earlyExit"`
	}
	decodeBody(t, res, http.StatusOK, &mtr)
	if !mtr.EarlyExit.Enabled {
		t.Fatal("metrics report early exit disabled")
	}
	if mtr.EarlyExit.Predictions != 3 || mtr.EarlyExit.MembersEvaluated != int64(members) {
		t.Fatalf("metrics earlyExit = %+v, want 3 predictions / %d members", mtr.EarlyExit, members)
	}
}

// TestEarlyExitStream: the NDJSON stream must emit staged results (class +
// membersEvaluated, no dist) with classes matching full evaluation.
func TestEarlyExitStream(t *testing.T) {
	modelPath := trainBoostedModel(t, t.TempDir())
	early, err := newServerMode(modelPath, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(early.handler())
	defer ts.Close()

	lines := `{"num": [0.2, [1, 2, 3]]}
{"num": [9.2, [12, 13, 14]]}
`
	res, err := http.Post(ts.URL+"/classify/stream", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var got []modelio.StreamResult
	dec := json.NewDecoder(res.Body)
	for dec.More() {
		var ln modelio.StreamResult
		if err := dec.Decode(&ln); err != nil {
			t.Fatal(err)
		}
		got = append(got, ln)
	}
	if len(got) != 2 {
		t.Fatalf("%d stream lines, want 2", len(got))
	}
	want := []string{"lo", "hi"}
	for i, sr := range got {
		if sr.Error != "" || sr.Class != want[i] {
			t.Fatalf("line %d: %+v, want class %q", i+1, sr, want[i])
		}
		if sr.MembersEvaluated < 1 {
			t.Fatalf("line %d: membersEvaluated = %d", i+1, sr.MembersEvaluated)
		}
		if sr.Dist != nil {
			t.Fatalf("line %d: early-exit stream carried a distribution", i+1)
		}
	}
}

// TestEarlyExitSingleTree: a single tree is a one-member forest, so
// -early-exit serves it like any model — at startup and after a boosted →
// tree hot reload — answering the full-evaluation classes with
// membersEvaluated 1 on /classify and on the stream endpoint.
func TestEarlyExitSingleTree(t *testing.T) {
	treePath := trainModel(t)
	full, err := newServer(treePath, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsFull := httptest.NewServer(full.handler())
	defer tsFull.Close()
	early, err := newServerMode(treePath, 1, true)
	if err != nil {
		t.Fatalf("early-exit server refused a single tree: %v", err)
	}
	tsEarly := httptest.NewServer(early.handler())
	defer tsEarly.Close()
	assertTreeEarlyExit(t, tsFull.URL, tsEarly.URL)

	// Hot reload from a boosted ensemble to the tree.
	modelPath := trainBoostedModel(t, t.TempDir())
	s, err := newServerMode(modelPath, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	treeBlob, err := os.ReadFile(treePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, treeBlob, 0o644); err != nil {
		t.Fatal(err)
	}
	var reloaded struct {
		Generation  int64  `json:"generation"`
		Description string `json:"description"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/reload", ""), http.StatusOK, &reloaded)
	if reloaded.Generation != 2 || !strings.HasPrefix(reloaded.Description, "tree (") {
		t.Fatalf("reload to a tree = %+v", reloaded)
	}
	assertTreeEarlyExit(t, tsFull.URL, ts.URL)
}

// assertTreeEarlyExit checks an early-exit server holding a single tree
// against a full-evaluation server of the same tree: identical classes and
// exactly one member evaluated per tuple, on /classify and the stream.
func assertTreeEarlyExit(t *testing.T, fullURL, earlyURL string) {
	t.Helper()
	tuples := []string{
		`{"num": [0.2, [1, 2, 3]]}`,
		`{"num": [9.2, [12, 13, 14]]}`,
		`{"num": [null, [2, 3, 4]]}`,
	}
	body := `{"tuples": [` + strings.Join(tuples, ", ") + `]}`
	type result struct {
		Class            string             `json:"class"`
		Dist             map[string]float64 `json:"dist"`
		MembersEvaluated int                `json:"membersEvaluated"`
	}
	var fullResp, earlyResp struct {
		Results []result `json:"results"`
	}
	decodeBody(t, postJSON(t, fullURL+"/classify", body), http.StatusOK, &fullResp)
	decodeBody(t, postJSON(t, earlyURL+"/classify", body), http.StatusOK, &earlyResp)
	if len(earlyResp.Results) != len(tuples) || len(fullResp.Results) != len(tuples) {
		t.Fatalf("%d early results, %d full, want %d", len(earlyResp.Results), len(fullResp.Results), len(tuples))
	}
	for i, er := range earlyResp.Results {
		if er.Class != fullResp.Results[i].Class || er.MembersEvaluated != 1 || er.Dist != nil {
			t.Fatalf("tuple %d: early exit %+v, full evaluation class %q", i, er, fullResp.Results[i].Class)
		}
	}

	res, err := http.Post(earlyURL+"/classify/stream", "application/x-ndjson", strings.NewReader(strings.Join(tuples, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	dec := json.NewDecoder(res.Body)
	lines := 0
	for ; dec.More(); lines++ {
		var sr modelio.StreamResult
		if err := dec.Decode(&sr); err != nil {
			t.Fatal(err)
		}
		if lines >= len(tuples) || sr.Error != "" || sr.Class != fullResp.Results[lines].Class || sr.MembersEvaluated != 1 || sr.Dist != nil {
			t.Fatalf("stream line %d: %+v", lines+1, sr)
		}
	}
	if lines != len(tuples) {
		t.Fatalf("stream answered %d lines, want %d", lines, len(tuples))
	}
}

// TestMetricsLatencyHistogram: every served request must land in the
// endpoint's latency histogram, and the histogram must validate and agree
// with the request count.
func TestMetricsLatencyHistogram(t *testing.T) {
	s, err := newServer(trainModel(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	const n = 7
	for i := 0; i < n; i++ {
		res := postJSON(t, ts.URL+"/classify", `{"num": [0.2, [1, 2, 3]]}`)
		res.Body.Close()
	}
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mtr struct {
		Endpoints struct {
			Classify struct {
				Requests int64             `json:"requests"`
				Latency  *latency.Snapshot `json:"latency"`
			} `json:"classify"`
		} `json:"endpoints"`
	}
	decodeBody(t, res, http.StatusOK, &mtr)
	ep := mtr.Endpoints.Classify
	if ep.Requests != n {
		t.Fatalf("classify requests = %d, want %d", ep.Requests, n)
	}
	if ep.Latency == nil {
		t.Fatal("classify metrics carry no latency histogram")
	}
	if err := ep.Latency.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ep.Latency.Total(); got != n {
		t.Fatalf("latency histogram total = %d, want %d", got, n)
	}
	if _, _, ok := ep.Latency.PercentileBounds(0.95); !ok {
		t.Fatal("histogram produced no p95 bounds")
	}
}
