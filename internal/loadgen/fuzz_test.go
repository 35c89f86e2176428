package loadgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"udt/internal/data"
	"udt/internal/modelio"
)

// Fuzz targets for the two loadgen decoders. Run in two modes: `go test`
// replays the checked-in corpus under testdata/fuzz as ordinary regression
// cases, and `go test -run=^$ -fuzz=FuzzDecodeReport -fuzztime=10s
// ./internal/loadgen` explores new inputs. The invariant in both: malformed
// input yields a clean error, never a panic, and accepted input is
// internally consistent.

// FuzzDecodeReport: arbitrary bytes through the report decoder. Anything
// that decodes must re-encode to a document that decodes again (the CI trend
// tooling round-trips reports).
func FuzzDecodeReport(f *testing.F) {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Target:        "http://127.0.0.1:8080",
		Requests:      Counts{Sent: 5, OK: 4, Errors: 1},
		OfferedQPS:    100,
		AchievedQPS:   80,
		Latency: map[string]*Summary{
			"all": {Count: 4, MeanMicros: 120, P50Micros: 100, P95Micros: 200, P99Micros: 250, MaxMicros: 300},
		},
	}
	seed, err := json.Marshal(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schemaVersion": 1}`))
	f.Add([]byte(`{"schemaVersion": 1, "requests": {"sent": -3}}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeReport(b)
		if err != nil {
			return
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		if _, err := DecodeReport(blob); err != nil {
			t.Fatalf("accepted report does not round-trip: %v\n%s", err, blob)
		}
	})
}

// FuzzPayloadsFromCSV: arbitrary bytes through the CSV payload sampler.
// Every accepted pool must contain only documents the shared wire decoder
// accepts — the generator's guarantee that request failures during a run are
// server-side facts.
func FuzzPayloadsFromCSV(f *testing.F) {
	f.Add([]byte(sampleCSV))
	f.Add([]byte("x,class\n1,lo\n"))
	f.Add([]byte("x,class\n1@0.5;2@0.5,lo\n"))
	f.Add([]byte("x,class\nnope,lo\n"))
	f.Add([]byte(""))
	f.Add([]byte("class\nlo\n"))
	f.Add([]byte("x,y,class\n1,2\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := PayloadsFromCSV(bytes.NewReader(b), "fuzz.csv")
		if err != nil {
			if p != nil {
				t.Fatal("error with non-nil payloads")
			}
			return
		}
		if len(p.Docs) == 0 {
			t.Fatal("accepted an empty payload pool")
		}
		src, err := data.NewCSVSource(bytes.NewReader(b), "fuzz.csv")
		if err != nil {
			t.Fatalf("payloads from a CSV the reader refuses: %v", err)
		}
		for i, doc := range p.Docs {
			if _, err := modelio.DecodeWireTuple(doc, src.NumAttrs(), src.CatAttrs()); err != nil {
				t.Fatalf("doc %d rejected by the wire decoder: %v\n%s", i, err, doc)
			}
			if bytes.ContainsAny(doc, "\n\r") {
				t.Fatalf("doc %d contains a newline (breaks NDJSON framing):\n%s", i, doc)
			}
		}
	})
}

// TestFuzzSeedsAreErrors pins the malformed seeds to their expected
// behaviour so corpus intent survives refactors.
func TestFuzzSeedsAreErrors(t *testing.T) {
	for _, csv := range []string{"", "class\nlo\n", "x,class\nnope,lo\n", "x,y,class\n1,2\n"} {
		if _, err := PayloadsFromCSV(strings.NewReader(csv), "seed"); err == nil {
			t.Errorf("seed %q: no error", csv)
		}
	}
	for _, blob := range []string{"{}", `{"schemaVersion": 1, "requests": {"sent": -3}}`, "not json at all"} {
		if _, err := DecodeReport([]byte(blob)); err == nil {
			t.Errorf("seed %q: no error", blob)
		}
	}
}
