package modelio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"udt/internal/data"
	"udt/internal/pdf"
)

// The encoding/json tuple decoder the scanner replaced, kept as the
// differential reference for FuzzWireDecodeDifferential. It decodes the
// body with a json.Decoder into json.RawMessages, then builds a fresh
// json.Decoder per numeric attribute. It accepts three inputs the scanner
// refuses (wireRefusals detects them): repeated keys (last wins), null in
// a number array (decoded as 0) and data after the document (ignored).

type refWireTuple struct {
	Num []json.RawMessage `json:"num"`
	Cat []json.RawMessage `json:"cat"`
}

type refRequestJSON struct {
	Num    []json.RawMessage `json:"num"`
	Cat    []json.RawMessage `json:"cat"`
	Tuples []refWireTuple    `json:"tuples"`
}

// refDecodeRequest is the /classify body decoding of the reference.
func refDecodeRequest(body []byte, numAttrs, catAttrs []data.Attribute) ([]*data.Tuple, bool, error) {
	var req refRequestJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, false, err
	}
	batch := req.Tuples != nil
	if batch && (req.Num != nil || req.Cat != nil) {
		return nil, false, errors.New(`use either "tuples" or a single "num"/"cat" body, not both`)
	}
	if !batch {
		req.Tuples = []refWireTuple{{Num: req.Num, Cat: req.Cat}}
	}
	tuples := make([]*data.Tuple, len(req.Tuples))
	for i, tj := range req.Tuples {
		tu, err := refDecodeTuple(tj.Num, tj.Cat, numAttrs, catAttrs)
		if err != nil {
			return nil, false, fmt.Errorf("tuple %d: %w", i, err)
		}
		tuples[i] = tu
	}
	return tuples, batch, nil
}

func refDecodeTuple(num, cat []json.RawMessage, numAttrs, catAttrs []data.Attribute) (*data.Tuple, error) {
	if len(num) != len(numAttrs) {
		return nil, fmt.Errorf("%d numeric values, model has %d numeric attributes", len(num), len(numAttrs))
	}
	if len(cat) != len(catAttrs) {
		return nil, fmt.Errorf("%d categorical values, model has %d categorical attributes", len(cat), len(catAttrs))
	}
	tu := &data.Tuple{Weight: 1}
	for j, raw := range num {
		p, err := refDecodeNum(raw)
		if err != nil {
			return nil, fmt.Errorf("numeric attribute %q: %w", numAttrs[j].Name, err)
		}
		tu.Num = append(tu.Num, p)
	}
	for j, raw := range cat {
		d, err := refDecodeCat(raw, catAttrs[j].Domain)
		if err != nil {
			return nil, fmt.Errorf("categorical attribute %q: %w", catAttrs[j].Name, err)
		}
		tu.Cat = append(tu.Cat, d)
	}
	return tu, nil
}

func refDecodeNum(raw json.RawMessage) (*pdf.PDF, error) {
	if refIsNull(raw) {
		return nil, nil
	}
	switch refFirstByte(raw) {
	case '{':
		var obj struct {
			Xs     []float64 `json:"xs"`
			Masses []float64 `json:"masses"`
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&obj); err != nil {
			return nil, err
		}
		return pdf.New(obj.Xs, obj.Masses)
	case '[':
		var obs []float64
		if err := json.Unmarshal(raw, &obs); err != nil {
			return nil, err
		}
		return pdf.FromSamples(obs)
	default:
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		return pdf.Point(v), nil
	}
}

func refDecodeCat(raw json.RawMessage, domain []string) (data.CatDist, error) {
	if refIsNull(raw) {
		return nil, nil
	}
	if refFirstByte(raw) == '[' {
		var masses []float64
		if err := json.Unmarshal(raw, &masses); err != nil {
			return nil, err
		}
		if len(masses) != len(domain) {
			return nil, fmt.Errorf("%d masses, domain has %d values", len(masses), len(domain))
		}
		d := data.CatDist(masses)
		if err := d.Normalize(); err != nil {
			return nil, err
		}
		return d, nil
	}
	var v string
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	for i, name := range domain {
		if name == v {
			return data.NewCatPoint(i, len(domain)), nil
		}
	}
	return nil, fmt.Errorf("value %q not in domain %v", v, domain)
}

func refIsNull(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

func refFirstByte(raw json.RawMessage) byte {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return b
	}
	return 0
}

// wireRefusals reports whether blob holds one of the three inputs the
// scanner refuses and the reference accepts, found independently of both
// by a json.Decoder token walk over blob's first value:
//   - a key repeated in one object, up to case folding;
//   - null as an element of an array that is not the value of a "num",
//     "cat" or "tuples" key (elements of those may be missing);
//   - anything but whitespace after the first value.
//
// A blob whose first value is not valid JSON reports false: the reference
// refuses it anyway.
func wireRefusals(blob []byte) bool {
	type frame struct {
		object  bool
		wantKey bool     // object: the next token is a key
		keys    []string // object: keys so far
		wire    bool     // array: the value of a num, cat or tuples key
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var stack []*frame
	refused := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if key, ok := tok.(string); ok && top != nil && top.object && top.wantKey {
			for _, k := range top.keys {
				if strings.EqualFold(k, key) {
					refused = true
				}
			}
			top.keys = append(top.keys, key)
			top.wantKey = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			wire := false
			if top != nil && top.object {
				key := top.keys[len(top.keys)-1]
				wire = strings.EqualFold(key, "num") || strings.EqualFold(key, "cat") || strings.EqualFold(key, "tuples")
			}
			stack = append(stack, &frame{wire: wire})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				top = stack[len(stack)-1]
			} else {
				top = nil
			}
		case nil:
			if top != nil && !top.object && !top.wire {
				refused = true
			}
		}
		// A value ended: an enclosing object wants its next key.
		if top == nil {
			break
		}
		if top.object {
			top.wantKey = true
		}
	}
	rest := blob[dec.InputOffset():]
	return refused || len(bytes.TrimLeft(rest, " \t\r\n")) > 0
}

// sameTuple reports the first difference between two decoded tuples, bit
// for bit: every pdf's X(i) and CDF(X(i)), and every categorical mass.
func sameTuple(got, want *data.Tuple) error {
	if got.Weight != want.Weight || len(got.Num) != len(want.Num) || len(got.Cat) != len(want.Cat) {
		return fmt.Errorf("shape: weight %v/%v, %d/%d numeric, %d/%d categorical",
			got.Weight, want.Weight, len(got.Num), len(want.Num), len(got.Cat), len(want.Cat))
	}
	for j, p := range got.Num {
		q := want.Num[j]
		if (p == nil) != (q == nil) {
			return fmt.Errorf("numeric %d: missing %v, want %v", j, p == nil, q == nil)
		}
		if p == nil {
			continue
		}
		if p.NumSamples() != q.NumSamples() {
			return fmt.Errorf("numeric %d: %d samples, want %d", j, p.NumSamples(), q.NumSamples())
		}
		for i := 0; i < p.NumSamples(); i++ {
			x, y := p.X(i), q.X(i)
			if math.Float64bits(x) != math.Float64bits(y) ||
				math.Float64bits(p.CDF(x)) != math.Float64bits(q.CDF(y)) {
				return fmt.Errorf("numeric %d sample %d: (%v, %v), want (%v, %v)", j, i, x, p.CDF(x), y, q.CDF(y))
			}
		}
	}
	for j, c := range got.Cat {
		w := want.Cat[j]
		if (c == nil) != (w == nil) || len(c) != len(w) {
			return fmt.Errorf("categorical %d: %v, want %v", j, c, w)
		}
		for v := range c {
			if math.Float64bits(c[v]) != math.Float64bits(w[v]) {
				return fmt.Errorf("categorical %d: %v, want %v", j, c, w)
			}
		}
	}
	return nil
}
