package modelio

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// numberGrammar is the JSON number grammar, the reference for what
// scanner.number accepts.
var numberGrammar = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber scans s with scanner.number. Where s, after the whitespace
// number skips, matches the JSON number grammar, number must return
// strconv.ParseFloat's bits, fail exactly when strconv reports a range
// error, and stop at the end of s. Anything else must not be consumed whole
// as a number.
func checkNumber(s []byte) error {
	d := newScanner(s, nil, nil)
	defer d.release()
	got, err := d.number()
	span := bytes.TrimLeft(s, " \t\r\n")
	if !numberGrammar.Match(span) {
		if err == nil && d.pos == len(s) {
			return fmt.Errorf("%q is outside the grammar, number read it whole as %v", clipped(s), got)
		}
		return nil
	}
	want, refErr := strconv.ParseFloat(string(span), 64)
	switch {
	case refErr != nil && !errors.Is(refErr, strconv.ErrRange):
		return fmt.Errorf("%q: strconv refuses a grammatical number: %v", clipped(s), refErr)
	case (err != nil) != (refErr != nil):
		return fmt.Errorf("%q: number error %v, strconv error %v", clipped(s), err, refErr)
	case err == nil && math.Float64bits(got) != math.Float64bits(want):
		return fmt.Errorf("%q: number %v (%#x), strconv %v (%#x)", clipped(s), got, math.Float64bits(got), want, math.Float64bits(want))
	case d.pos != len(s):
		return fmt.Errorf("%q: number stopped at offset %d of %d", clipped(s), d.pos, len(s))
	}
	return nil
}

// numberSeeds sit at the edges of the fast path and of float64.
var numberSeeds = []string{
	"0", "-0", "-0.0", "0e30", "-0e-30",
	// 2^53 - 1, 2^53 and 2^53 + 1.
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
	"1e22", "1e23", "1e-22", "1e-23", "9007199254740992e22", "9007199254740992e-22",
	// 20 or more significant digits: only zeros dropped, then a nonzero one.
	"12345678901234567890", "12345678901234567891",
	"1.0000000000000000000000", "1.0000000000000000000001",
	"0.000000000000000000001234567890123456789012",
	"100000000000000000000000e-23", "9007199254740993.0000000000000000001",
	"1e400", "-1e400", "1e-400", "-1e-400",
	"4.9e-324", "2.4703282292062327e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
	"1.7976931348623159e308",
	// Exponents longer than 20 digits.
	"1e000000000000000000000000022", "1e-123456789012345678901234", "0.1e+99999999999999999999999",
	// Outside the grammar.
	"", "-", "01", "1.", ".5", "1e", "1e+", "+1", "1_0", "0x10", "Inf", " 1", "1 ",
}

// FuzzNumberMatchesParseFloat: scanner.number against strconv.ParseFloat,
// number by number (checkNumber).
func FuzzNumberMatchesParseFloat(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if err := checkNumber([]byte(s)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNumberSweep formats random float64s with 'g', 'e' and 'f' at every
// precision from -1 (shortest round trip) to 22 and checks each string
// (checkNumber). Half the values have uniformly random bits, so any
// exponent; half are of everyday magnitudes, so the fast path is taken.
func TestNumberSweep(t *testing.T) {
	// The exponent's digits saturate as strconv's do, once the exponent
	// reaches 10000, so the first reads as 1, the second as an overflow and
	// the third as 0. These are too long to seed the fuzz.
	for _, s := range []string{
		"0." + strings.Repeat("0", 9999) + "1e100000",
		"0." + strings.Repeat("0", 999) + "1e10000",
		"0." + strings.Repeat("0", 123455) + "1e123456",
	} {
		if err := checkNumber([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	n := 6000
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(23))
	var buf []byte
	checked := 0
	for k := 0; k < n; k++ {
		v := math.Float64frombits(rng.Uint64())
		if k%2 == 1 {
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(31)-15))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, format := range []byte{'g', 'e', 'f'} {
			for prec := -1; prec <= 22; prec++ {
				buf = strconv.AppendFloat(buf[:0], v, format, prec, 64)
				if err := checkNumber(buf); err != nil {
					t.Fatal(err)
				}
				checked++
			}
		}
	}
	t.Logf("%d strings", checked)
}
