package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"udt/internal/registry"
)

// jsonKeyPaths renders every key path of a decoded JSON document with the
// kind of its value, one "a.b.c kind" line per path, sorted. Every key is
// pinned by value: endpoint, span and model names and batch-size ranges are
// dashboard API just like the fixed keys.
func jsonKeyPaths(doc any) []string {
	var out []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		kind := "null"
		switch v.(type) {
		case map[string]any:
			kind = "object"
		case []any:
			kind = "array"
		case string:
			kind = "string"
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		}
		if prefix != "" {
			out = append(out, prefix+" "+kind)
			prefix += "."
		}
		if m, ok := v.(map[string]any); ok {
			for k, c := range m {
				walk(prefix+k, c)
			}
		}
	}
	walk("", doc)
	sort.Strings(out)
	return out
}

var (
	// buildLabel matches the build-dependent label values of *_build_info.
	buildLabel = regexp.MustCompile(`([{,])(version|commit|goversion)="[^"]*"`)
	// leLabel matches a histogram bucket's le label.
	leLabel = regexp.MustCompile(`,?le="[^"]*"`)
)

// expositionSignature reduces a text exposition to its HELP and TYPE lines
// and its series keys in order: values dropped, histogram buckets folded
// into one key (le removed), build-dependent label values masked.
func expositionSignature(body []byte) []string {
	var out []string
	seen := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		key = buildLabel.ReplaceAllString(key, `$1$2="*"`)
		key = strings.Replace(leLabel.ReplaceAllString(key, ""), "{}", "", 1)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

// TestMetricsGolden pins both /metrics dialects as a scrape sees them: every
// JSON key path with its kind, and every exposition HELP/TYPE line and
// series key in order. Traffic reaches every route first, so every
// conditional key is present: latency fields (a request on each endpoint),
// the shadow object (-shadow), span histograms (-trace-sample 1) and
// batch-size ranges. A second scrape after evicting the only model pins the
// emptied registry: "models": {} in JSON, and the per-model families'
// HELP/TYPE lines with no series.
//
// A diff is a breaking change for dashboards and scrape configs; if
// intended, regenerate with: go test ./cmd/udtserve -run MetricsGolden -update-golden
func TestMetricsGolden(t *testing.T) {
	modelPath := trainModel(t)
	shadowPath := filepath.Join(t.TempDir(), "candidate.json")
	copyFile(t, modelPath, shadowPath)
	s, err := newServerOpts(registry.Options{Path: modelPath, Shadow: shadowPath}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	s.mw.SampleEvery = 1
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
	const tuple = `{"num": [0.2, [1, 2, 3]]}`
	do(http.MethodPost, "/classify", tuple)
	do(http.MethodPost, "/classify", `{"tuples": [`+tuple+`, `+tuple+`, `+tuple+`]}`)
	do(http.MethodPost, "/classify/stream", tuple+"\n")
	do(http.MethodPost, "/reload", "")
	do(http.MethodGet, "/healthz", "")
	do(http.MethodGet, "/metrics", "")
	do(http.MethodPost, "/v1/models/default/classify", tuple)
	do(http.MethodPost, "/v1/models/default/classify/stream", tuple+"\n")
	do(http.MethodPost, "/v1/models/default/reload", "")
	do(http.MethodGet, "/v1/models/default/healthz", "")
	do(http.MethodDelete, "/v1/models/nosuch", "")

	scrape := func(query string) []byte {
		t.Helper()
		res, err := http.Get(ts.URL + "/metrics" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("scrape %q: status %d, %v", query, res.StatusCode, err)
		}
		return body
	}
	section := func(name string, body []byte, prom bool) string {
		t.Helper()
		var lines []string
		if prom {
			lines = expositionSignature(body)
		} else {
			var doc any
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lines = jsonKeyPaths(doc)
		}
		return "== " + name + "\n" + strings.Join(lines, "\n") + "\n"
	}

	got := section("json", scrape(""), false) +
		section("prometheus", scrape("?format=prometheus"), true)
	do(http.MethodDelete, "/v1/models/default", "")
	if s.reg.Len() != 0 {
		t.Fatalf("registry holds %d models after evicting the only one", s.reg.Len())
	}
	got += section("json, registry emptied", scrape(""), false) +
		section("prometheus, registry emptied", scrape("?format=prometheus"), true)

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics shape changed (run with -update-golden if intended):\ngot:\n%swant:\n%s", got, want)
	}
}
