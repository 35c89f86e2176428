package loadgen

import (
	"bytes"
	"strings"
	"testing"

	"udt/internal/data"
	"udt/internal/modelio"
)

// FuzzPayloadsFromCSV: arbitrary bytes through the CSV payload sampler.
// `go test` replays the checked-in corpus under testdata/fuzz as ordinary
// regression cases; `go test -run=^$ -fuzz=FuzzPayloadsFromCSV -fuzztime=10s
// ./internal/loadgen` explores new inputs. Malformed input must yield a
// clean error, never a panic, and every accepted pool must contain only
// documents the shared wire decoder accepts — the guarantee that request
// failures during a drive are server-side facts.
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
}
