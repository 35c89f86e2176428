package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// fixedInventory is a small server inventory covering every declaration
// form: the build, a series in both dialects, a Prometheus-only series (nil
// object), a JSON-only value (map assignment), an endpoint whose latency is
// JSON-only (nil family), and a family declared over an empty set.
func fixedInventory(em *EndpointMetrics) func(*Export) {
	return func(x *Export) {
		root := x.Obj()
		x.BuildInfo(root, "build", "t_build_info", "v1.2", "c0ffee")
		x.Counter("t_items_total", "Items.").Value(x.Obj("items"), "total", 7)
		x.Gauge("t_prom_only", "Prometheus only.").Value(nil, "", 3)
		root["jsonOnly"] = "yes"
		em.Declare(x.Obj("endpoints"), "e",
			x.Counter("t_requests_total", "Requests."),
			x.Counter("t_errors_total", "Errors."),
			nil, Label{Key: "endpoint", Value: "e"})
		x.Gauge("t_empty", "Declared over an empty set.")
	}
}

func scrapeExport(t testing.TB, h http.HandlerFunc, accept, format string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics?"+url.Values{"format": {format}}.Encode(), nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	h(w, req)
	return w
}

func TestExportBothDialects(t *testing.T) {
	var em EndpointMetrics
	em.Observe(3*time.Millisecond, http.StatusOK)
	em.Observe(time.Millisecond, http.StatusNotFound)
	h := MetricsHandler(fixedInventory(&em))

	var doc map[string]any
	if err := json.Unmarshal(scrapeExport(t, h, "", "json").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["items"].(map[string]any)["total"] != 7.0 || doc["jsonOnly"] != "yes" {
		t.Fatalf("JSON document = %v", doc)
	}
	if b := doc["build"].(map[string]any); b["version"] != "v1.2" || b["commit"] != "c0ffee" || b["goVersion"] == "" {
		t.Fatalf("build = %v", b)
	}
	ep := doc["endpoints"].(map[string]any)["e"].(map[string]any)
	for _, key := range []string{"requests", "errors", "totalLatency", "avgLatency", "latency"} {
		if _, ok := ep[key]; !ok {
			t.Fatalf("endpoint document lacks %q: %v", key, ep)
		}
	}
	if ep["requests"] != 2.0 || ep["errors"] != 1.0 || ep["totalLatency"] != "4ms" || ep["avgLatency"] != "2ms" {
		t.Fatalf("endpoint document = %v", ep)
	}
	if len(doc) != 4 {
		t.Fatalf("JSON document has %d keys, want build, items, jsonOnly and endpoints: %v", len(doc), doc)
	}

	text := scrapeExport(t, h, "", "prometheus").Body.String()
	e, err := ParseText([]byte(text))
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	var order []string
	for _, line := range strings.Split(text, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			order = append(order, strings.Fields(name)[0])
		}
	}
	want := "t_build_info t_items_total t_prom_only t_requests_total t_errors_total t_empty"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("family order = %s, want %s", got, want)
	}
	for _, c := range []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"t_items_total", nil, 7},
		{"t_prom_only", nil, 3},
		{"t_requests_total", []Label{{Key: "endpoint", Value: "e"}}, 2},
		{"t_errors_total", []Label{{Key: "endpoint", Value: "e"}}, 1},
	} {
		if v, ok := e.Value(c.name, c.labels...); !ok || v != c.want {
			t.Errorf("%s%v = %v, %v; want %v", c.name, c.labels, v, ok, c.want)
		}
	}
	if strings.Contains(text, "jsonOnly") || strings.Contains(text, "latency") {
		t.Fatalf("a JSON-only value reached the exposition:\n%s", text)
	}
}

// TestMetricsHandlerDialect pins the negotiation rule: ?format= decides,
// else text only when Accept rates text/plain strictly above
// application/json under RFC 9110 specificity. An unparsable q counts as 1.
func TestMetricsHandlerDialect(t *testing.T) {
	var em EndpointMetrics
	h := MetricsHandler(fixedInventory(&em))
	for _, c := range []struct {
		accept, format string
		want           int // 0 JSON, 1 text, 400 error
	}{
		{"text/plain;version=0.0.4;q=1,*/*;q=0.1", "", 1},
		{"application/openmetrics-text;version=1.0.0,application/openmetrics-text;version=0.0.1;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1", "", 1},
		{"text/plain", "", 1},
		{"text/*", "", 1},
		{"text/plain;q=0.5, application/json;q=0.4", "", 1},
		{"application/json", "", 0},
		{"*/*", "", 0},
		{"", "", 0},
		{"text/plain, application/json", "", 0}, // a tie stays JSON
		{"text/plain;q=0.5, */*;q=0.5", "", 0},
		{"text/plain;q=0, */*", "", 0},
		{"text/plain;q=abc, application/json;q=0.9", "", 1}, // malformed q is 1
		{"text/plain", "json", 0},
		{"application/json", "prometheus", 1},
		{"", "xml", 400},
	} {
		w := scrapeExport(t, h, c.accept, c.format)
		ctype := w.Header().Get("Content-Type")
		got := 0
		switch {
		case w.Code == http.StatusBadRequest:
			got = 400
		case ctype == TextType:
			got = 1
		}
		if got != c.want {
			t.Errorf("Accept %q format %q: status %d type %q, want %d", c.accept, c.format, w.Code, ctype, c.want)
		}
	}
}

// FuzzMetricsNegotiation sends arbitrary Accept lines and format values to
// the shared metrics handler over a small fixed inventory. It must never
// panic; every quality lies in [0, 1]; an unknown format gets a 400;
// otherwise the dialect follows the negotiation rule, a text body passes the
// strict parser and a JSON body is valid JSON.
func FuzzMetricsNegotiation(f *testing.F) {
	for _, seed := range [][2]string{
		{"text/plain;version=0.0.4;q=1,*/*;q=0.1", ""},
		{"application/openmetrics-text;version=1.0.0,application/openmetrics-text;version=0.0.1;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1", ""},
		{"*/*;q=0", ""},
		{"text/plain;q=, application/json;q=x", ""},
		{"text/plain;q=NaN,application/json;q=-1", ""},
		{"text/plain;q=1e-400;q=2", ""},
		{",;,;=q", ""},
		{"text/plain;q=5, application/json;q=1", ""},
		{"text/plain;q=Inf, application/json;q=0x1p-1", ""},
		{"application/json;q=-0, text/plain;q=0.0000", ""},
		{"text/plain;q=0.000, application/json;q=1.000", ""},
		{"", "prometheus"},
		{"application/json", "json"},
		{"text/plain", "xml"},
	} {
		f.Add(seed[0], seed[1])
	}
	var em EndpointMetrics
	em.Observe(time.Millisecond, http.StatusOK)
	h := MetricsHandler(fixedInventory(&em))
	f.Fuzz(func(t *testing.T, accept, format string) {
		w := scrapeExport(t, h, accept, format)
		if format != "" && format != "json" && format != "prometheus" {
			if w.Code != http.StatusBadRequest || !json.Valid(w.Body.Bytes()) {
				t.Fatalf("format %q: status %d, want a 400 with a JSON error", format, w.Code)
			}
			return
		}
		var headers []string
		if accept != "" {
			headers = []string{accept}
		}
		textQ, jsonQ := quality(headers, "text/plain"), quality(headers, "application/json")
		if !(textQ >= 0 && textQ <= 1 && jsonQ >= 0 && jsonQ <= 1) {
			t.Fatalf("Accept %q: qualities %v (text) and %v (JSON) outside [0, 1]", accept, textQ, jsonQ)
		}
		wantText := format == "prometheus" || format == "" && textQ > jsonQ
		if w.Code != http.StatusOK {
			t.Fatalf("Accept %q format %q: status %d", accept, format, w.Code)
		}
		if wantText {
			if ctype := w.Header().Get("Content-Type"); ctype != TextType {
				t.Fatalf("Accept %q format %q: type %q, want the text exposition", accept, format, ctype)
			}
			if _, err := ParseText(w.Body.Bytes()); err != nil {
				t.Fatalf("exposition rejected: %v", err)
			}
			return
		}
		if ctype := w.Header().Get("Content-Type"); ctype != "application/json" || !json.Valid(w.Body.Bytes()) {
			t.Fatalf("Accept %q format %q: type %q, want valid JSON", accept, format, ctype)
		}
	})
}
