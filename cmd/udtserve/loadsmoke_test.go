package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"udt/internal/loadgen"
)

// TestLoadSmoke drives an in-process early-exit udtserve with loadgen's
// mixed single/batch/stream requests and checks that every request is
// answered and that /metrics counts exactly the tuples sent.
//
// Before driving it proves the early-exit server is not trading correctness
// for speed: every payload must classify identically on a full and an
// early-exit server over the same model.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke is not a -short test")
	}
	dir := t.TempDir()
	modelPath := trainBoostedModel(t, dir)
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

	csvPath := filepath.Join(dir, "load.csv")
	writeLoadCSV(t, csvPath)
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := loadgen.PayloadsFromCSV(f, csvPath)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Correctness gate: early exit must agree with full evaluation on every
	// payload the drive samples from.
	for i, doc := range payloads.Docs {
		if fc, ec := classifyOne(t, tsFull.URL, doc), classifyOne(t, tsEarly.URL, doc); fc != ec {
			t.Fatalf("payload %d: full evaluation %q, early exit %q", i, fc, ec)
		}
	}

	const requests = 300
	res, err := loadgen.Drive(context.Background(), tsEarly.Client(), tsEarly.URL, payloads, 7, requests)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != requests || res.Failed != 0 {
		t.Fatalf("drive = %+v, want all %d requests OK", res, requests)
	}

	// A third of the requests each are single tuples, batches and streams;
	// the parity pass classified every payload once more.
	want := int64(requests/3*(1+loadgen.BatchSize+loadgen.StreamLines) + len(payloads.Docs))
	scrape, err := http.Get(tsEarly.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		TuplesClassified int64 `json:"tuplesClassified"`
		EarlyExit        struct {
			Predictions      int64 `json:"predictions"`
			MembersEvaluated int64 `json:"membersEvaluated"`
		} `json:"earlyExit"`
	}
	decodeBody(t, scrape, http.StatusOK, &m)
	if m.TuplesClassified != want || m.EarlyExit.Predictions != want {
		t.Fatalf("server classified %d tuples with %d early-exit predictions, want %d of each",
			m.TuplesClassified, m.EarlyExit.Predictions, want)
	}
	if m.EarlyExit.MembersEvaluated < m.EarlyExit.Predictions {
		t.Fatalf("early exit evaluated %d members over %d predictions", m.EarlyExit.MembersEvaluated, m.EarlyExit.Predictions)
	}
}

// classifyOne posts a single wire tuple and returns the predicted class.
func classifyOne(t *testing.T, baseURL string, doc []byte) string {
	t.Helper()
	res := postJSON(t, baseURL+"/classify", string(doc))
	var out struct {
		Class string `json:"class"`
	}
	decodeBody(t, res, http.StatusOK, &out)
	return out.Class
}

// writeLoadCSV emits payload rows over the boosted test model's schema (two
// numeric attributes): point values and sampled pdfs spread across both
// class regions so the drive exercises varied descent paths.
func writeLoadCSV(t *testing.T, path string) {
	t.Helper()
	const rows = `x,y,class
0.2,1@0.5;2@0.3;3@0.2,lo
0.5,2;3;4,lo
1.1,1@0.9;5@0.1,lo
9.2,12;13;14,hi
8.4,11@0.25;12@0.5;13@0.25,hi
10.0,14,hi
`
	if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
}
