package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"udt/internal/loadgen"
)

const testCSV = `x,y,class
0.2,1@0.5;2@0.3;3@0.2,lo
9.2,12;13;14,hi
4.5,2@0.25;3@0.5;4@0.25,lo
`

// stubHandler fakes just enough of udtserve for the CLI to run: classify
// endpoints that always succeed and a /metrics document with a tuple
// counter. Handlers run concurrently, so the counter is atomic.
func stubHandler() http.Handler {
	mux := http.NewServeMux()
	var classified atomic.Int64
	mux.HandleFunc("POST /classify", func(w http.ResponseWriter, r *http.Request) {
		classified.Add(1)
		w.Write([]byte(`{"class":"lo"}`))
	})
	mux.HandleFunc("POST /classify/stream", func(w http.ResponseWriter, r *http.Request) {
		classified.Add(1)
		w.Write([]byte(`{"line":1,"class":"lo"}` + "\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"tuplesClassified": classified.Load()})
	})
	return mux
}

func writeCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunWritesReport: -out must produce a report DecodeReport accepts plus
// a human summary on stdout.
func TestRunWritesReport(t *testing.T) {
	ts := httptest.NewServer(stubHandler())
	defer ts.Close()
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-data", writeCSV(t),
		"-qps", "300", "-duration", "200ms", "-seed", "7",
		"-mix", "single=0.6,batch=0.3,stream=0.1", "-batch", "4", "-stream-lines", "3",
		"-out", outPath,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.DecodeReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests.OK == 0 || rep.Requests.Errors != 0 {
		t.Fatalf("requests = %+v", rep.Requests)
	}
	if rep.Config.Seed != 7 || rep.Config.BatchSize != 4 {
		t.Fatalf("config = %+v", rep.Config)
	}
	out := stdout.String()
	for _, want := range []string{"sent ", "latency p50", "report written to " + outPath} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q lacks %q", out, want)
		}
	}
}

// TestRunStdoutReport: without -out the JSON report itself is the stdout
// payload (pipe-friendly), with no summary mixed in.
func TestRunStdoutReport(t *testing.T) {
	ts := httptest.NewServer(stubHandler())
	defer ts.Close()
	var stdout bytes.Buffer
	err := run(context.Background(), []string{
		"-target", ts.URL, "-data", writeCSV(t),
		"-qps", "200", "-duration", "100ms", "-mix", "single=1",
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadgen.DecodeReport(stdout.Bytes()); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, stdout.String())
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("single=0.5,stream=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if mix != (loadgen.Mix{Single: 0.5, Stream: 0.5}) {
		t.Fatalf("mix = %+v", mix)
	}
	for _, bad := range []string{"", "single", "single=x", "single=-1", "oneshot=1", "single=0,batch=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q): no error", bad)
		}
	}
}

// TestRunFlagErrors: missing required flags and unreadable data must fail
// before any traffic is sent.
func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	var sink bytes.Buffer
	for name, args := range map[string][]string{
		"no target": {"-data", "x.csv"},
		"no data":   {"-target", "http://127.0.0.1:1"},
		"bad mix":   {"-target", "http://127.0.0.1:1", "-data", "x.csv", "-mix", "nope=1"},
	} {
		if err := run(ctx, args, &sink); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if err := run(ctx, []string{"-target", "http://127.0.0.1:1", "-data", filepath.Join(t.TempDir(), "missing.csv")}, &sink); err == nil {
		t.Error("missing CSV: no error")
	}
}

// TestParseModels: the -models flag grammar.
func TestParseModels(t *testing.T) {
	m, err := parseModels("alpha=0.7, beta=0.3")
	if err != nil || m["alpha"] != 0.7 || m["beta"] != 0.3 {
		t.Fatalf("parseModels = %v, %v", m, err)
	}
	if m, err := parseModels(""); err != nil || m != nil {
		t.Fatalf("empty spec = %v, %v", m, err)
	}
	for _, bad := range []string{"alpha", "=1", "alpha=x", "alpha=-1", "alpha=1,alpha=2", ","} {
		if _, err := parseModels(bad); err == nil {
			t.Errorf("parseModels(%q): no error", bad)
		}
	}
}

// TestTargetListValidation: a -target of only separators is refused.
func TestTargetListValidation(t *testing.T) {
	err := run(context.Background(), []string{"-target", ",,", "-data", "x.csv"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-target") {
		t.Fatalf("blank target list: %v", err)
	}
}
