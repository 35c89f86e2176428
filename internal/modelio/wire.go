package modelio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"udt/internal/data"
	"udt/internal/par"
	"udt/internal/pdf"
)

// The JSON wire format for uncertain tuples, shared by every consumer of a
// loaded model. A tuple is {"num": [...], "cat": [...]} with one entry per
// model attribute, in model order. Numeric entries are a number (a point
// value), an array of numbers (raw repeated measurements, equal mass), an
// object {"xs": [...], "masses": [...]} (an explicit sampled pdf), or null
// (missing). Categorical entries are a domain value string, an array of
// per-value masses, or null (missing). A /classify body is one tuple, or
// {"tuples": [...]} for a batch.
//
// Keys match the way encoding/json matches struct fields: equal after
// unescaping, up to Unicode case folding. Three inputs encoding/json would
// let through are refused: a key repeated in one object (it would be
// last-wins), null inside a number array (it would become 0), and anything
// but whitespace after the document.
//
// One hand-written scanner decodes the grammar in a single pass, straight
// from the request bytes into pdfs. A number is converted in the pass that
// checks its grammar: exactly, by one float64 operation, when its digits
// and exponent are small enough (scanner.number), and otherwise by
// strconv.ParseFloat(…, 64), the call encoding/json makes. Decoded values
// are bit-identical to encoding/json's either way.

// StreamResult is one line of the NDJSON classification stream protocol,
// shared by udtserve's POST /classify/stream responses and udtree's
// "predict -format ndjson" output so the two surfaces stay byte-compatible:
// the 1-based input line number plus either a classification or an in-band
// error.
type StreamResult struct {
	Line  int                `json:"line"`
	Class string             `json:"class,omitempty"`
	Dist  map[string]float64 `json:"dist,omitempty"`
	// MembersEvaluated counts the ensemble members evaluated before the
	// argmax settled; only early-exit prediction emits it (and no dist, since
	// early exit stops before the full distribution exists).
	MembersEvaluated int    `json:"membersEvaluated,omitempty"`
	Error            string `json:"error,omitempty"`
}

// NewStreamResult labels a classification distribution with its class names:
// the predicted class is par.Argmax (lowest index winning ties, the model
// convention) and the dist map carries one probability per class label.
func NewStreamResult(line int, classes []string, dist []float64) StreamResult {
	m := make(map[string]float64, len(dist))
	for c, p := range dist {
		m[classes[c]] = p
	}
	return StreamResult{Line: line, Class: classes[par.Argmax(dist)], Dist: m}
}

// NewStagedResult labels an early-exit prediction: the settled class plus the
// number of members evaluated, with no distribution (early exit stops before
// the full distribution exists).
func NewStagedResult(line int, classes []string, class, membersEvaluated int) StreamResult {
	return StreamResult{Line: line, Class: classes[class], MembersEvaluated: membersEvaluated}
}

// DecodeRequest decodes a /classify body against the model schema: one
// tuple document, or {"tuples": [...]} for a batch, which batch reports.
func DecodeRequest(body []byte, numAttrs, catAttrs []data.Attribute) (tuples []*data.Tuple, batch bool, err error) {
	d := newScanner(body, numAttrs, catAttrs)
	defer d.release()
	return d.request()
}

// DecodeWireTuple decodes one tuple document, such as one line of the
// NDJSON stream endpoint, against the model schema.
func DecodeWireTuple(doc []byte, numAttrs, catAttrs []data.Attribute) (*data.Tuple, error) {
	d := newScanner(doc, numAttrs, catAttrs)
	defer d.release()
	tu, err := d.tuple()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return tu, nil
}

// DecodeTuple converts already-split attribute values into an uncertain
// tuple matching the given attribute schema.
func DecodeTuple(num, cat []json.RawMessage, numAttrs, catAttrs []data.Attribute) (*data.Tuple, error) {
	if len(num) != len(numAttrs) {
		return nil, fmt.Errorf("%d numeric values, model has %d numeric attributes", len(num), len(numAttrs))
	}
	if len(cat) != len(catAttrs) {
		return nil, fmt.Errorf("%d categorical values, model has %d categorical attributes", len(cat), len(catAttrs))
	}
	tu := &data.Tuple{Num: make([]*pdf.PDF, 0, len(num)), Cat: make([]data.CatDist, 0, len(cat)), Weight: 1}
	for j, raw := range num {
		p, err := DecodeNum(raw)
		if err != nil {
			return nil, fmt.Errorf("numeric attribute %q: %w", numAttrs[j].Name, err)
		}
		tu.Num = append(tu.Num, p)
	}
	for j, raw := range cat {
		d, err := DecodeCat(raw, catAttrs[j].Domain)
		if err != nil {
			return nil, fmt.Errorf("categorical attribute %q: %w", catAttrs[j].Name, err)
		}
		tu.Cat = append(tu.Cat, d)
	}
	return tu, nil
}

// DecodeNum parses one numeric attribute value: null (missing), a number (a
// point), an array of raw measurements, or {"xs", "masses"}.
func DecodeNum(raw json.RawMessage) (*pdf.PDF, error) {
	d := newScanner(raw, nil, nil)
	defer d.release()
	p, err := d.numValue()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeCat parses one categorical attribute value: null (missing), a
// domain value string, or an array of per-value masses.
func DecodeCat(raw json.RawMessage, domain []string) (data.CatDist, error) {
	d := newScanner(raw, nil, nil)
	defer d.release()
	c, err := d.catValue(domain)
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Object keys of the wire format. A tuple's keys are the request's first two.
var (
	requestKeys = [][]byte{[]byte("num"), []byte("cat"), []byte("tuples")}
	pdfKeys     = [][]byte{[]byte("xs"), []byte("masses")}
)

// scanner decodes one wire document from b. Its float and string scratch is
// reused across attributes and, through scanners, across documents; a pdf
// copies what it keeps, so nothing decoded aliases the scratch.
type scanner struct {
	b                  []byte
	pos                int
	numAttrs, catAttrs []data.Attribute
	xs, ms             []float64
	str                []byte
}

var scanners = sync.Pool{New: func() any {
	return &scanner{xs: make([]float64, 0, initScratch), ms: make([]float64, 0, initScratch)}
}}

const (
	// initScratch is a new scanner's float scratch, in elements: room for
	// a pdf of the paper's default s = 100 sample points.
	initScratch = 128
	// maxPooledScratch bounds the scratch a pooled scanner keeps, so one
	// huge body does not pin its buffers for every later small one.
	maxPooledScratch = 1 << 16
)

func newScanner(b []byte, numAttrs, catAttrs []data.Attribute) *scanner {
	d := scanners.Get().(*scanner)
	d.b, d.pos, d.numAttrs, d.catAttrs = b, 0, numAttrs, catAttrs
	return d
}

func (d *scanner) release() {
	if cap(d.xs) > maxPooledScratch || cap(d.ms) > maxPooledScratch || cap(d.str) > maxPooledScratch {
		return // drop it; the pool makes a fresh one
	}
	d.b, d.numAttrs, d.catAttrs = nil, nil, nil
	scanners.Put(d)
}

// newTuple returns an empty tuple with room for one value per attribute.
func (d *scanner) newTuple() *data.Tuple {
	return &data.Tuple{
		Num:    make([]*pdf.PDF, 0, len(d.numAttrs)),
		Cat:    make([]data.CatDist, 0, len(d.catAttrs)),
		Weight: 1,
	}
}

// request decodes a /classify body.
func (d *scanner) request() ([]*data.Tuple, bool, error) {
	single := d.newTuple()
	var tuples []*data.Tuple
	var given [3]bool // num, cat, tuples present and not null
	// A null body decodes like {}, as encoding/json leaves the struct zero.
	if !d.null() {
		err := d.fields(requestKeys, func(k int) error {
			if d.null() {
				return nil
			}
			given[k] = true
			if k < 2 {
				return d.attrs(k, single)
			}
			tuples = []*data.Tuple{}
			return d.array(func(i int) error {
				tu, err := d.tuple()
				if err != nil {
					return fmt.Errorf("tuple %d: %w", i, err)
				}
				tuples = append(tuples, tu)
				return nil
			})
		})
		if err != nil {
			return nil, false, err
		}
	}
	if err := d.end(); err != nil {
		return nil, false, err
	}
	if given[2] {
		if given[0] || given[1] {
			return nil, false, errors.New(`use either "tuples" or a single "num"/"cat" body, not both`)
		}
		return tuples, true, nil
	}
	if err := d.arity(single); err != nil {
		return nil, false, err
	}
	return []*data.Tuple{single}, false, nil
}

// tuple decodes one tuple object; null decodes like {}.
func (d *scanner) tuple() (*data.Tuple, error) {
	tu := d.newTuple()
	if !d.null() {
		if err := d.fields(requestKeys[:2], func(k int) error { return d.attrs(k, tu) }); err != nil {
			return nil, err
		}
	}
	if err := d.arity(tu); err != nil {
		return nil, err
	}
	return tu, nil
}

// attrs decodes the "num" (k == 0) or "cat" (k == 1) array of a tuple into
// tu; null leaves it empty.
func (d *scanner) attrs(k int, tu *data.Tuple) error {
	if d.null() {
		return nil
	}
	if k == 0 {
		return d.array(func(j int) error {
			if j == len(d.numAttrs) {
				return fmt.Errorf("more numeric values than the model's %d numeric attributes", j)
			}
			p, err := d.numValue()
			if err != nil {
				return fmt.Errorf("numeric attribute %q: %w", d.numAttrs[j].Name, err)
			}
			tu.Num = append(tu.Num, p)
			return nil
		})
	}
	return d.array(func(j int) error {
		if j == len(d.catAttrs) {
			return fmt.Errorf("more categorical values than the model's %d categorical attributes", j)
		}
		c, err := d.catValue(d.catAttrs[j].Domain)
		if err != nil {
			return fmt.Errorf("categorical attribute %q: %w", d.catAttrs[j].Name, err)
		}
		tu.Cat = append(tu.Cat, c)
		return nil
	})
}

// arity checks that tu has one value per schema attribute.
func (d *scanner) arity(tu *data.Tuple) error {
	if len(tu.Num) != len(d.numAttrs) {
		return fmt.Errorf("%d numeric values, model has %d numeric attributes", len(tu.Num), len(d.numAttrs))
	}
	if len(tu.Cat) != len(d.catAttrs) {
		return fmt.Errorf("%d categorical values, model has %d categorical attributes", len(tu.Cat), len(d.catAttrs))
	}
	return nil
}

// numValue decodes one numeric attribute value.
func (d *scanner) numValue() (*pdf.PDF, error) {
	switch d.next() {
	case 'n':
		if d.null() {
			return nil, nil
		}
	case '[':
		var err error
		if d.xs, err = d.numbers(d.xs); err != nil {
			return nil, err
		}
		return pdf.FromSamples(d.xs)
	case '{':
		d.xs, d.ms = d.xs[:0], d.ms[:0]
		err := d.fields(pdfKeys, func(k int) error {
			var err error
			if k == 0 {
				d.xs, err = d.numbers(d.xs)
			} else {
				d.ms, err = d.numbers(d.ms)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		return pdf.New(d.xs, d.ms)
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		v, err := d.number()
		if err != nil {
			return nil, err
		}
		return pdf.Point(v), nil
	}
	return nil, d.syntaxError("a number, an array, an object or null")
}

// catValue decodes one categorical attribute value over domain.
func (d *scanner) catValue(domain []string) (data.CatDist, error) {
	switch d.next() {
	case 'n':
		if d.null() {
			return nil, nil
		}
	case '[':
		var err error
		if d.ms, err = d.numbers(d.ms); err != nil {
			return nil, err
		}
		if len(d.ms) != len(domain) {
			return nil, fmt.Errorf("%d masses, domain has %d values", len(d.ms), len(domain))
		}
		c := make(data.CatDist, len(d.ms))
		copy(c, d.ms)
		if err := c.Normalize(); err != nil {
			return nil, err
		}
		return c, nil
	case '"':
		v, err := d.string()
		if err != nil {
			return nil, err
		}
		for i, name := range domain {
			if string(v) == name {
				return data.NewCatPoint(i, len(domain)), nil
			}
		}
		return nil, fmt.Errorf("value %q not in domain %v", clipped(v), domain)
	}
	return nil, d.syntaxError("a string, an array or null")
}

// fields scans an object whose keys come from names, calling value(k) with
// the scanner at the value of names[k]. Keys match after unescaping, up to
// Unicode case folding (bytes.EqualFold, encoding/json's rule for struct
// fields). An unknown key is refused, and so is a repeated one: every
// value is decoded once and kept.
func (d *scanner) fields(names [][]byte, value func(k int) error) error {
	if err := d.expect('{', "'{'"); err != nil {
		return err
	}
	if d.next() == '}' {
		d.pos++
		return nil
	}
	var seen uint
	for {
		d.ws()
		start := d.pos
		key, err := d.string()
		if err != nil {
			return err
		}
		k := 0
		for k < len(names) && !bytes.EqualFold(key, names[k]) {
			k++
		}
		if k == len(names) {
			return fmt.Errorf("offset %d: unknown field %q", start, clipped(key))
		}
		if seen&(1<<k) != 0 {
			return fmt.Errorf("offset %d: repeated key %q", start, clipped(key))
		}
		seen |= 1 << k
		if err := d.expect(':', "':' after an object key"); err != nil {
			return err
		}
		if err := value(k); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntaxError("',' or '}' after an object value")
		}
	}
}

// array scans an array, calling elem(j) with the scanner at element j.
func (d *scanner) array(elem func(j int) error) error {
	if err := d.expect('[', "'[' or null"); err != nil {
		return err
	}
	if d.next() == ']' {
		d.pos++
		return nil
	}
	for j := 0; ; j++ {
		if err := elem(j); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.syntaxError("',' or ']' after an array element")
		}
	}
}

// numbers scans an array of numbers into dst[:0] and returns it. A null
// element is refused: encoding/json would decode it as 0.
//
//udt:hotpath
func (d *scanner) numbers(dst []float64) ([]float64, error) {
	dst = dst[:0]
	if err := d.expect('[', "'['"); err != nil {
		return dst, err
	}
	if d.next() == ']' {
		d.pos++
		return dst, nil
	}
	for {
		if d.null() {
			return dst, fmt.Errorf("offset %d: null in a number array", d.pos-len("null"))
		}
		v, err := d.number()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return dst, nil
		default:
			return dst, d.syntaxError("',' or ']' after an array element")
		}
	}
}

// pow10 holds the powers of ten that a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number scans one number, which must match the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it in the
// same pass. The scan keeps up to 19 significant digits as an integer m
// (leading zeros of the fraction do not count) and the decimal exponent e
// of m's last digit; the exponent's own digits saturate as strconv's do.
// When m <= 2^53 (at most 16 digits, so none was dropped) and |e| <= 22,
// float64(m) and 10^|e| are exact, and one multiplication or division
// gives m·10^e correctly rounded: Clinger's exact-operand case, the first
// one strconv tries. Every other number goes to strconv.ParseFloat(…, 64)
// on its span, the call encoding/json makes, so the bits are
// encoding/json's either way.
//
//udt:hotpath
func (d *scanner) number() (float64, error) {
	d.ws()
	b, start := d.b, d.pos
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		m   uint64 // the significant digits kept
		nd  int    // how many m holds
		exp int    // decimal exponent of m's last digit
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				m = m*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp++
			}
		}
	default:
		d.pos = i
		return 0, d.syntaxError("a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				if nd > 0 || b[i] != '0' {
					m = m*10 + uint64(b[i]-'0')
					nd++
				}
				exp--
			}
		}
		if i == frac {
			d.pos = i
			return 0, d.syntaxError("a digit after the decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		digits, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			d.pos = i
			return 0, d.syntaxError("a digit in the exponent")
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.pos = i
	if m <= 1<<53 && -len(pow10) < exp && exp < len(pow10) {
		v := float64(m)
		if neg {
			v = -v
		}
		if exp < 0 {
			return v / pow10[-exp], nil
		}
		return v * pow10[exp], nil
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		// The span is grammatical, so the only failure is range.
		return 0, fmt.Errorf("offset %d: number %s overflows float64", start, clipped(b[start:i]))
	}
	return v, nil
}

// maxEcho bounds the request bytes an error message quotes.
const maxEcho = 64

// clipped formats request bytes in an error message. Up to maxEcho bytes
// format as a []byte would; longer input formats as its first maxEcho
// bytes, then "…" and its length, so no error echoes a whole request.
type clipped []byte

func (c clipped) Format(f fmt.State, verb rune) {
	format := fmt.FormatString(f, verb)
	if len(c) <= maxEcho {
		fmt.Fprintf(f, format, []byte(c))
		return
	}
	fmt.Fprintf(f, format+"… (%d bytes)", []byte(c[:maxEcho]), len(c))
}

// string scans a string and returns its contents unescaped the way
// encoding/json unescapes them: invalid UTF-8 and unpaired surrogates
// become U+FFFD. The result aliases the input when nothing needs
// unescaping and the scanner's scratch otherwise; it is valid until the
// next call.
func (d *scanner) string() ([]byte, error) {
	if err := d.expect('"', "a string"); err != nil {
		return nil, err
	}
	b, start := d.b, d.pos
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			d.pos = i + 1
			return b[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	out := append(d.str[:0], b[start:i]...)
	for {
		if i >= len(b) {
			d.pos = i
			return nil, d.syntaxError("'\"' closing the string")
		}
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			d.str = out
			return out, nil
		case c < ' ':
			d.pos = i
			return nil, d.syntaxError("a string character (control characters must be escaped)")
		case c == '\\':
			if i+1 >= len(b) {
				d.pos = i + 1
				return nil, d.syntaxError("an escape character")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b, i+2)
				if r < 0 {
					d.pos = i
					return nil, d.syntaxError(`four hex digits after \u`)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						r2 = hex4(b, i+2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntaxError("a valid escape character")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// hex4 decodes the four hex digits at b[i:], or returns -1.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// null consumes a null literal if one comes next.
func (d *scanner) null() bool {
	if d.next() == 'n' && len(d.b)-d.pos >= 4 && string(d.b[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// expect consumes byte c, after whitespace; want names it in the error.
func (d *scanner) expect(c byte, want string) error {
	if d.next() != int(c) {
		return d.syntaxError(want)
	}
	d.pos++
	return nil
}

// end refuses anything but whitespace after the document.
func (d *scanner) end() error {
	d.ws()
	if d.pos != len(d.b) {
		return fmt.Errorf("offset %d: trailing data after the document", d.pos)
	}
	return nil
}

// next skips whitespace and returns the byte there, or -1 at the end.
func (d *scanner) next() int {
	d.ws()
	if d.pos < len(d.b) {
		return int(d.b[d.pos])
	}
	return -1
}

func (d *scanner) ws() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// syntaxError reports what the scanner wanted at its position.
func (d *scanner) syntaxError(want string) error {
	if d.pos >= len(d.b) {
		return fmt.Errorf("offset %d: unexpected end of input, want %s", d.pos, want)
	}
	return fmt.Errorf("offset %d: invalid character %q, want %s", d.pos, d.b[d.pos], want)
}
