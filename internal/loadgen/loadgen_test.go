package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"udt/internal/data"
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
// sequence, and a different seed a different one.
func TestSamplerDeterminism(t *testing.T) {
	p := mustPayloads(t)
	s1, err := newSampler(42, p)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newSampler(42, p)
	s3, _ := newSampler(43, p)
	diverged := false
	for i := 0; i < 200; i++ {
		r1, r2, r3 := s1.draw(i), s2.draw(i), s3.draw(i)
		if string(r1.body) != string(r2.body) {
			t.Fatalf("draw %d: same seed diverged:\n%s\n%s", i, r1.body, r2.body)
		}
		if string(r1.body) != string(r3.body) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged over 200 draws")
	}
}

// driveStub answers the legacy and /v1/models/{model}/ classify routes and
// fails by a fixed rule: beta's batches get a 500, gamma's single tuples a
// 503, and gamma's streams a 200 whose last line is an in-band error. It
// counts the requests each model (legacy routes: "") received.
type driveStub struct {
	mu   sync.Mutex
	hits map[string]int
}

func (s *driveStub) handler() http.Handler {
	hit := func(r *http.Request) string {
		model := r.PathValue("model")
		s.mu.Lock()
		s.hits[model]++
		s.mu.Unlock()
		return model
	}
	classify := func(w http.ResponseWriter, r *http.Request) {
		model := hit(r)
		body, _ := io.ReadAll(r.Body)
		batch := bytes.HasPrefix(body, []byte(`{"tuples":`))
		switch {
		case model == "beta" && batch:
			http.Error(w, "boom", http.StatusInternalServerError)
		case model == "gamma" && !batch:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"class":"lo"}`))
		}
	}
	stream := func(w http.ResponseWriter, r *http.Request) {
		model := hit(r)
		sc := bufio.NewScanner(r.Body)
		enc := json.NewEncoder(w)
		for line := 1; sc.Scan(); line++ {
			res := modelio.StreamResult{Line: line, Class: "lo"}
			if model == "gamma" && line == StreamLines {
				res = modelio.StreamResult{Line: line, Error: "bad tuple"}
			}
			enc.Encode(res)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", classify)
	mux.HandleFunc("POST /classify/stream", stream)
	mux.HandleFunc("POST /v1/models/{model}/classify", classify)
	mux.HandleFunc("POST /v1/models/{model}/classify/stream", stream)
	return mux
}

// TestDrive: every request is counted exactly once, OK or failed, and per
// model; a non-2xx answer and a stream with an in-band error are failures;
// without models the legacy routes get every request; and a dead server
// fails every request.
func TestDrive(t *testing.T) {
	stub := &driveStub{hits: map[string]int{}}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	ctx := context.Background()

	const n = 60
	models := []string{"alpha", "beta", "gamma"}
	wantHits, wantOK, wantFailed := map[string]int{}, map[string]int{}, 0
	for i := range n {
		model, kind := models[i/3%len(models)], i%3 // kind 0 single, 1 batch, 2 stream
		wantHits[model]++
		if (model == "beta" && kind == 1) || (model == "gamma" && kind != 1) {
			wantFailed++
		} else {
			wantOK[model]++
		}
	}
	res, err := Drive(ctx, ts.Client(), ts.URL, mustPayloads(t), 7, n, models...)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK+res.Failed != n || res.Failed != wantFailed || !maps.Equal(res.ByModel, wantOK) {
		t.Fatalf("result %+v, want %d failed and OK per model %v", res, wantFailed, wantOK)
	}
	if !maps.Equal(stub.hits, wantHits) {
		t.Fatalf("server saw %v, want %v", stub.hits, wantHits)
	}

	clear(stub.hits)
	res, err = Drive(ctx, ts.Client(), ts.URL, mustPayloads(t), 7, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != n || res.Failed != 0 || res.ByModel != nil || stub.hits[""] != n || len(stub.hits) != 1 {
		t.Fatalf("legacy routes: result %+v, server saw %v", res, stub.hits)
	}

	if _, err := Drive(ctx, ts.Client(), ts.URL, mustPayloads(t), 7, 0); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := Drive(ctx, ts.Client(), ts.URL, &Payloads{}, 7, n); err == nil {
		t.Error("empty payload pool accepted")
	}
	ts.Close()
	if res, err := Drive(ctx, ts.Client(), ts.URL, mustPayloads(t), 7, 6); err != nil || res.OK != 0 || res.Failed != 6 {
		t.Fatalf("dead server: result %+v, %v", res, err)
	}
}
