package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// Export is one scrape of a server's metric inventory. The server declares
// each series once, naming its place in the JSON document and its
// Prometheus family, and MetricsHandler renders whichever dialect the
// request negotiated from those same values. Families render in the order
// they were declared. The zero value is an empty scrape.
//
// A series is one-dialect only when declared so: a nil JSON object makes it
// Prometheus-only, and a plain map assignment is JSON-only.
type Export struct {
	doc  map[string]any
	fams []*Family
}

// Obj returns the JSON object at the key path below the document root,
// creating the objects on the way; Obj() is the root itself.
func (x *Export) Obj(keys ...string) map[string]any {
	if x.doc == nil {
		x.doc = map[string]any{}
	}
	obj := x.doc
	for _, k := range keys {
		next, ok := obj[k].(map[string]any)
		if !ok {
			next = map[string]any{}
			obj[k] = next
		}
		obj = next
	}
	return obj
}

// Counter declares a counter family and returns it for its series.
func (x *Export) Counter(name, help string) *Family { return x.family(name, help, Counter) }

// Gauge declares a gauge family and returns it for its series.
func (x *Export) Gauge(name, help string) *Family { return x.family(name, help, Gauge) }

// Histogram declares a histogram family and returns it for its series.
func (x *Export) Histogram(name, help string) *Family { return x.family(name, help, Histogram) }

// family appends a family. One that never gets a series still renders
// (HELP and TYPE), so a family over an empty set keeps its place.
func (x *Export) family(name, help string, t MetricType) *Family {
	f := &Family{Name: name, Help: help, Type: t}
	x.fams = append(x.fams, f)
	return f
}

// Families returns the declared families in declaration order.
func (x *Export) Families() []Family {
	out := make([]Family, len(x.fams))
	for i, f := range x.fams {
		out[i] = *f
	}
	return out
}

// BuildInfo declares the build: {version, commit, goVersion} at obj[key]
// and a gauge called name, always 1, labelled version, commit and
// goversion.
func (x *Export) BuildInfo(obj map[string]any, key, name, version, commit string) {
	if obj != nil {
		obj[key] = map[string]string{"version": version, "commit": commit, "goVersion": runtime.Version()}
	}
	x.Gauge(name, "Build metadata; value is always 1.").Value(nil, "", 1,
		Label{Key: "version", Value: version},
		Label{Key: "commit", Value: commit},
		Label{Key: "goversion", Value: runtime.Version()})
}

// Uptime declares the time since started: the document root's "uptime", a
// duration rounded to the second, and a gauge called name in seconds.
func (x *Export) Uptime(name, help string, started time.Time) {
	up := time.Since(started)
	x.Obj()["uptime"] = up.Round(time.Second).String()
	f := x.Gauge(name, help)
	f.Samples = append(f.Samples, Sample{Value: up.Seconds()})
}

// Value declares one counter or gauge series: v at obj[key] in JSON and a
// sample of f labelled labels. A nil obj declares the Prometheus sample
// only; a nil f the JSON value only.
func (f *Family) Value(obj map[string]any, key string, v int64, labels ...Label) {
	if obj != nil {
		obj[key] = v
	}
	if f != nil {
		f.Samples = append(f.Samples, Sample{Labels: labels, Value: float64(v)})
	}
}

// Hist declares one histogram series: view, the histogram in the JSON
// document's shape, at obj[key], and h in f. Nil obj and f work as in
// Value.
func (f *Family) Hist(obj map[string]any, key string, view any, h Hist) {
	if obj != nil {
		obj[key] = view
	}
	if f != nil {
		f.Hists = append(f.Hists, h)
	}
}

// Declare declares an endpoint's accounting: its JSON snapshot at obj[key]
// (requests and errors, plus total and average latency strings and the
// latency histogram once it has served a request), and its requests, errors
// and latency series in the three families, labelled labels.
func (e *EndpointMetrics) Declare(obj map[string]any, key string, reqs, errs, lat *Family, labels ...Label) {
	doc := map[string]any{}
	obj[key] = doc
	n, nanos := e.Requests.Load(), e.Nanos.Load()
	reqs.Value(doc, "requests", n, labels...)
	errs.Value(doc, "errors", e.Errors.Load(), labels...)
	var latDoc map[string]any
	if n > 0 {
		total := time.Duration(nanos)
		doc["totalLatency"] = total.String()
		doc["avgLatency"] = (total / time.Duration(n)).String()
		latDoc = doc
	}
	snap := e.Hist.Snapshot()
	lat.Hist(latDoc, "latency", snap, HistFromLatency(snap, float64(nanos)/1e9, labels...))
}

// MetricsHandler serves a metrics endpoint: every request fills a fresh
// Export and gets it back in the dialect it asked for. ?format=json or
// ?format=prometheus decides outright, and any other format is a 400.
// Without one, the text exposition goes only to a request whose Accept
// header rates text/plain strictly above application/json, as a Prometheus
// scraper's does; no header, */* and ties get JSON.
func MetricsHandler(fill func(*Export)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var text bool
		switch format := r.URL.Query().Get("format"); format {
		case "prometheus":
			text = true
		case "json":
		case "":
			accept := r.Header.Values("Accept")
			text = quality(accept, "text/plain") > quality(accept, "application/json")
		default:
			Fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q: want json or prometheus", format))
			return
		}
		var x Export
		fill(&x)
		// Write errors mean the client went away; there is no one to tell.
		if text {
			w.Header().Set("Content-Type", TextType)
			WriteText(w, x.Families())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(x.Obj())
	}
}
