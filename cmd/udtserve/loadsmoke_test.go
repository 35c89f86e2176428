package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"udt/internal/loadgen"
)

// TestLoadSmoke runs the udtload traffic generator against an in-process
// early-exit udtserve and checks the whole measurement chain: payloads from
// a CSV, open-loop arrivals, zero failures, server-side early-exit deltas,
// the client/server latency cross-check, and a report that round-trips
// through loadgen.DecodeReport.
//
// Before generating load it proves the early-exit server is not trading
// correctness for speed: every payload must classify identically on a full
// and an early-exit server over the same model.
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
	// payload the load run will sample from.
	for i, doc := range payloads.Docs {
		if fc, ec := classifyOne(t, tsFull.URL, doc), classifyOne(t, tsEarly.URL, doc); fc != ec {
			t.Fatalf("payload %d: full evaluation %q, early exit %q", i, fc, ec)
		}
	}

	// The mix is batch-heavy with fat batches so the /classify p95 sits in
	// the batch regime, where handler work (decode + classify + encode of 256
	// tuples) dominates the fixed per-request client overhead — the regime
	// where client- and server-observed percentiles can meaningfully agree.
	// Batches must grow with the server's speed: at 64 tuples a batch now
	// takes under 512 µs server-side, and the fixed overhead alone moves the
	// client p95 one or two power-of-two buckets up.
	// The cross-check is the one assertion that depends on wall-clock
	// behaviour outside the server (client-side scheduling), so a transient
	// divergence under a loaded test machine gets one fresh run before the
	// test fails; a systematic divergence fails both.
	var rep *loadgen.Report
	var ee *loadgen.EarlyExitDelta
	for attempt := 0; ; attempt++ {
		var err error
		rep, err = loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:     tsEarly.URL,
			QPS:         200,
			Duration:    2 * time.Second,
			Seed:        7,
			Mix:         loadgen.Mix{Single: 0.25, Batch: 0.55, Stream: 0.2},
			BatchSize:   256,
			StreamLines: 16,
			Client:      tsEarly.Client(),
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		c := rep.Requests
		if c.OK == 0 {
			t.Fatalf("no successful requests: %+v", c)
		}
		if c.Errors != 0 || c.Rejected != 0 || c.Dropped != 0 {
			t.Fatalf("in-process smoke saw failures: %+v", c)
		}
		if rep.Latency["all"].Count != c.OK {
			t.Fatalf("latency[all] covers %d requests, ok = %d", rep.Latency["all"].Count, c.OK)
		}
		srv := rep.Server
		if srv == nil || srv.TuplesClassified == 0 {
			t.Fatalf("server delta = %+v", srv)
		}
		ee = srv.EarlyExit
		if ee == nil || ee.Predictions == 0 {
			t.Fatalf("early-exit delta = %+v", ee)
		}
		if ee.MembersEvaluated < ee.Predictions {
			t.Fatalf("early exit evaluated %d members over %d predictions", ee.MembersEvaluated, ee.Predictions)
		}
		if rep.CrossCheck == nil {
			t.Fatal("no client/server latency cross-check")
		}
		if rep.CrossCheck.WithinOneBucket {
			break
		}
		msg := fmt.Sprintf("client p95 %dµs and server p95 (%d, %d]µs landed %d buckets apart",
			rep.CrossCheck.ClientP95Micros, rep.CrossCheck.ServerP95LoMicros,
			rep.CrossCheck.ServerP95HiMicros, rep.CrossCheck.BucketDistance)
		if attempt > 0 {
			t.Fatal(msg)
		}
		t.Logf("%s; retrying once (contended test machine?)", msg)
	}
	c := rep.Requests

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadgen.DecodeReport(append(blob, '\n')); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	t.Logf("report: ok=%d p50=%dµs p95=%dµs members/prediction=%.2f",
		c.OK, rep.Latency["all"].P50Micros, rep.Latency["all"].P95Micros,
		float64(ee.MembersEvaluated)/float64(ee.Predictions))
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
// class regions so the load run exercises varied descent paths.
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
