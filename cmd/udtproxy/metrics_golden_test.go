package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// jsonKeyPaths renders every key path of a decoded JSON document with the
// kind of its value, one "a.b.c kind" line per path, sorted, with the
// backend URL (a map key) masked as <backend>.
func jsonKeyPaths(doc any, backendURL string) []string {
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
				if k == backendURL {
					k = "<backend>"
				}
				walk(prefix+k, c)
			}
		}
	}
	walk("", doc)
	sort.Strings(out)
	return out
}

var (
	// maskedLabel matches the label values that depend on the build or on
	// the test's backend address.
	maskedLabel = regexp.MustCompile(`([{,])(version|commit|goversion|backend)="[^"]*"`)
	// leLabel matches a histogram bucket's le label.
	leLabel = regexp.MustCompile(`,?le="[^"]*"`)
)

// expositionSignature reduces a text exposition to its HELP and TYPE lines
// and its series keys in order: values dropped, histogram buckets folded
// into one key (le removed), build and backend label values masked.
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
		key = maskedLabel.ReplaceAllString(key, `$1$2="*"`)
		key = strings.Replace(leLabel.ReplaceAllString(key, ""), "{}", "", 1)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

// TestMetricsGolden pins both dialects of the proxy's /-/metrics: the JSON
// key paths with their kinds, and the exposition's HELP and TYPE lines and
// series keys in order. Forwarded traffic comes first, so the latency
// fields of the forward accounting are present.
//
// A diff is a breaking change for dashboards and scrape configs; if
// intended, regenerate with: go test ./cmd/udtproxy -run MetricsGolden -update-golden
func TestMetricsGolden(t *testing.T) {
	b := echoBackend(t, "solo")
	ts := httptest.NewServer(mustProxy(t, "roundrobin", b.URL).handler())
	defer ts.Close()
	res, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()

	scrape := func(query string) []byte {
		t.Helper()
		res, err := http.Get(ts.URL + "/-/metrics" + query)
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
	var doc any
	if err := json.Unmarshal(scrape(""), &doc); err != nil {
		t.Fatal(err)
	}
	got := "== json\n" + strings.Join(jsonKeyPaths(doc, b.URL), "\n") + "\n" +
		"== prometheus\n" + strings.Join(expositionSignature(scrape("?format=prometheus")), "\n") + "\n"

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/-/metrics shape changed (run with -update-golden if intended):\ngot:\n%swant:\n%s", got, want)
	}
}
