// Package loadgen drives traffic through udtserve and udtproxy for the
// serving smoke tests: wire documents sampled deterministically from a CSV,
// sent as a fixed, seeded number of mixed single, batch and NDJSON-stream
// requests, with the answers counted. It measures nothing; the benchmark is
// perfbench/.
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"udt/internal/data"
	"udt/internal/modelio"
)

// Payloads is a pool of pre-encoded classification request documents sampled
// from a CSV: Docs[i] is the wire-format JSON for one tuple ({"num": [...]}),
// the building block of all three request classes (single bodies, batch
// bodies, NDJSON stream lines).
type Payloads struct {
	Name string
	Docs [][]byte
}

// PayloadsFromCSV parses the CSV (the "udtree train" interchange format) and
// encodes every tuple as a wire document. The class column is ignored — load
// payloads exercise classification, not evaluation.
func PayloadsFromCSV(r io.Reader, name string) (*Payloads, error) {
	src, err := data.NewCSVSource(r, name)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	ds, err := data.Collect(src)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("loadgen: %s has no data rows", name)
	}
	p := &Payloads{Name: name, Docs: make([][]byte, ds.Len())}
	for i, tu := range ds.Tuples {
		doc, err := encodeTuple(tu, ds.NumAttrs, ds.CatAttrs)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s row %d: %w", name, i+1, err)
		}
		p.Docs[i] = doc
	}
	return p, nil
}

// encodeTuple renders one tuple as the wire format udtserve decodes: point
// pdfs as bare numbers, sampled pdfs as {"xs", "masses"}, categorical
// distributions as mass arrays, missing values as null. Appending JSON
// fragments by hand keeps the document free of float formatting surprises
// (strconv is exactly what encoding/json uses for numbers).
func encodeTuple(tu *data.Tuple, numAttrs, catAttrs []data.Attribute) ([]byte, error) {
	buf := []byte(`{"num":[`)
	for j, p := range tu.Num {
		if j > 0 {
			buf = append(buf, ',')
		}
		switch {
		case p == nil:
			buf = append(buf, "null"...)
		case p.NumSamples() == 1:
			buf = appendFloat(buf, p.X(0))
		default:
			buf = append(buf, `{"xs":[`...)
			for i := 0; i < p.NumSamples(); i++ {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = appendFloat(buf, p.X(i))
			}
			buf = append(buf, `],"masses":[`...)
			for i := 0; i < p.NumSamples(); i++ {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = appendFloat(buf, p.Mass(i))
			}
			buf = append(buf, "]}"...)
		}
	}
	buf = append(buf, `],"cat":[`...)
	for j, d := range tu.Cat {
		if j > 0 {
			buf = append(buf, ',')
		}
		if d == nil {
			buf = append(buf, "null"...)
			continue
		}
		buf = append(buf, '[')
		for v, m := range d {
			if v > 0 {
				buf = append(buf, ',')
			}
			buf = appendFloat(buf, m)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, "]}"...)

	// Round-trip through the shared wire decoder so a payload the server
	// would reject never enters the pool: every request failure during a run
	// is then a server-side fact, not an encoding bug.
	if _, err := modelio.DecodeWireTuple(buf, numAttrs, catAttrs); err != nil {
		return nil, err
	}
	return buf, nil
}

func appendFloat(buf []byte, f float64) []byte {
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

// sampler draws payload indices deterministically from a seed, so two runs
// with the same seed against the same CSV issue byte-identical request
// sequences.
type sampler struct {
	rng  *rand.Rand
	docs [][]byte
}

func newSampler(seed int64, p *Payloads) (*sampler, error) {
	if p == nil || len(p.Docs) == 0 {
		return nil, errors.New("loadgen: no payloads")
	}
	return &sampler{rng: rand.New(rand.NewSource(seed)), docs: p.Docs}, nil
}

// next returns the next payload document. Documents are shared, never
// mutated.
func (s *sampler) next() []byte {
	return s.docs[s.rng.Intn(len(s.docs))]
}
