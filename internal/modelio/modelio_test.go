package modelio

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/pdf"
)

// twoClassDataset builds a small separable numeric dataset.
func twoClassDataset(n int) *data.Dataset {
	ds := data.NewDataset("demo", 2, []string{"lo", "hi"})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		c := i % 2
		base := float64(c * 10)
		p1, _ := pdf.Uniform(base-1+rng.Float64(), base+1+rng.Float64(), 7)
		ds.Add(c, p1, pdf.Point(base+rng.Float64()))
	}
	return ds
}

// TestDecodeAutoDetect: the loader must decode single-tree documents as
// one-member tree forests and forest containers as their ensemble kind,
// with identical predictions to the source models.
func TestDecodeAutoDetect(t *testing.T) {
	ds := twoClassDataset(60)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := forest.Train(ds, forest.Config{Trees: 5, Seed: 1, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}

	treeBlob, _ := json.Marshal(tree)
	forestBlob, _ := json.Marshal(fr)

	tm, err := Decode(treeBlob)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Kind() != forest.KindTree || tm.NumTrees() != 1 || tm.Format != FormatJSON {
		t.Fatalf("tree document decoded as %s kind %q with %d members", tm.Format, tm.Kind(), tm.NumTrees())
	}
	fm, err := Decode(forestBlob)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Kind() != forest.KindBagged || fm.NumTrees() != fr.NumTrees() {
		t.Fatalf("forest container decoded as kind %q with %d members", fm.Kind(), fm.NumTrees())
	}

	for i, tu := range ds.Tuples {
		if got, want := tm.Predict(tu), tree.Predict(tu); got != want {
			t.Fatalf("tuple %d: tree model predicts %d, source %d", i, got, want)
		}
		if got, want := fm.Predict(tu), fr.Predict(tu); got != want {
			t.Fatalf("tuple %d: forest model predicts %d, source %d", i, got, want)
		}
	}

	classes, num, cat := fm.Schema()
	if len(classes) != 2 || len(num) != 2 || len(cat) != 0 {
		t.Fatalf("forest schema = (%v, %d num, %d cat)", classes, len(num), len(cat))
	}
	if tm.Describe() == "" || fm.Describe() == "" {
		t.Fatal("empty model descriptions")
	}
}

// TestDecodeErrors: junk, empty objects and broken documents must fail with
// errors, not panic or misroute.
func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"not json":                `{`,
		"neither tree nor forest": `{"classes": ["a"]}`,
		"forest with bad trees":   `{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": {"classes": ["a", "b"]}}]}`,
		"tree without classes":    `{"root": {"dist": [1], "w": 1}}`,
		"container of kind tree":  `{"version": 2, "kind": "tree", "classes": ["a"], "numAttrs": [], "trees": [{"weight": 1, "tree": {"classes": ["a"], "root": {"dist": [1], "w": 1}}}]}`,
	}
	for name, doc := range cases {
		if _, err := Decode([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoad round-trips through a file and reports missing files.
func TestLoad(t *testing.T) {
	ds := twoClassDataset(40)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(tree)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(ds.Tuples[0]) != tree.Predict(ds.Tuples[0]) {
		t.Fatal("loaded model diverges from source tree")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestDecodeTupleWire exercises the shared tuple wire decoding: every value
// style, missing values, and arity/domain errors.
func TestDecodeTupleWire(t *testing.T) {
	numAttrs := []data.Attribute{{Name: "x", Kind: data.Numeric}, {Name: "y", Kind: data.Numeric}}
	catAttrs := []data.Attribute{{Name: "c", Kind: data.Categorical, Domain: []string{"p", "q"}}}
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }

	tu, err := DecodeTuple(
		[]json.RawMessage{raw(`1.5`), raw(`{"xs": [1, 2], "masses": [1, 3]}`)},
		[]json.RawMessage{raw(`"q"`)},
		numAttrs, catAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if tu.Num[0].Mean() != 1.5 {
		t.Fatalf("point value mean %v", tu.Num[0].Mean())
	}
	if got := tu.Num[1].Mean(); got != 1.75 {
		t.Fatalf("pdf mean %v, want 1.75", got)
	}
	if tu.Cat[0][1] != 1 {
		t.Fatalf("categorical point %v", tu.Cat[0])
	}

	// Missing values and raw-sample arrays.
	tu, err = DecodeTuple(
		[]json.RawMessage{raw(`null`), raw(`[2, 4]`)},
		[]json.RawMessage{raw(`[1, 1]`)},
		numAttrs, catAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if tu.Num[0] != nil {
		t.Fatal("null numeric not treated as missing")
	}
	if tu.Num[1].Mean() != 3 {
		t.Fatalf("raw-sample mean %v, want 3", tu.Num[1].Mean())
	}
	if tu.Cat[0][0] != 0.5 || tu.Cat[0][1] != 0.5 {
		t.Fatalf("mass array not normalised: %v", tu.Cat[0])
	}

	bad := []struct {
		name     string
		num, cat []json.RawMessage
		want     string // in the error, when set
	}{
		{"numeric arity", []json.RawMessage{raw(`1`)}, []json.RawMessage{raw(`"p"`)}, ""},
		{"categorical arity", []json.RawMessage{raw(`1`), raw(`2`)}, nil, ""},
		{"unknown domain value", []json.RawMessage{raw(`1`), raw(`2`)}, []json.RawMessage{raw(`"zzz"`)}, ""},
		{"mass arity", []json.RawMessage{raw(`1`), raw(`2`)}, []json.RawMessage{raw(`[1, 1, 1]`)}, ""},
		{"bad pdf object", []json.RawMessage{raw(`{"xs": [1], "masses": []}`), raw(`2`)}, []json.RawMessage{raw(`"p"`)}, ""},
		{"non-number", []json.RawMessage{raw(`"abc"`), raw(`2`)}, []json.RawMessage{raw(`"p"`)}, ""},
		// null inside a number array would decode as 0 under encoding/json.
		{"null raw sample", []json.RawMessage{raw(`1`), raw(`[1, null, 3]`)}, []json.RawMessage{raw(`"p"`)}, `numeric attribute "y": offset 4: null in a number array`},
		{"null in xs", []json.RawMessage{raw(`{"xs": [1, null], "masses": [1, 1]}`), raw(`2`)}, []json.RawMessage{raw(`"p"`)}, `numeric attribute "x"`},
		{"null in masses", []json.RawMessage{raw(`{"xs": [1, 2], "masses": [null, 1]}`), raw(`2`)}, []json.RawMessage{raw(`"p"`)}, `numeric attribute "x"`},
		{"null categorical mass", []json.RawMessage{raw(`1`), raw(`2`)}, []json.RawMessage{raw(`[1, null]`)}, `categorical attribute "c"`},
		// A repeated key would be last-wins, here after case folding.
		{"repeated key", []json.RawMessage{raw(`{"xs": [1], "masses": [1], "XS": [2]}`), raw(`2`)}, []json.RawMessage{raw(`"p"`)}, `repeated key "XS"`},
	}
	for _, tc := range bad {
		_, err := DecodeTuple(tc.num, tc.cat, numAttrs, catAttrs)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeErrorsClipInput: an error quotes at most maxEcho bytes of a
// refused number, key or value, then "…" and its length; a shorter one is
// quoted whole, as before.
func TestDecodeErrorsClipInput(t *testing.T) {
	num := []data.Attribute{{Name: "x", Kind: data.Numeric}}
	cat := []data.Attribute{{Name: "c", Kind: data.Categorical, Domain: []string{"p"}}}
	long := strings.Repeat("7", 1<<20)
	for _, tc := range []struct{ body, want string }{
		{`{"num": [1e400], "cat": ["p"]}`, `numeric attribute "x": offset 9: number 1e400 overflows float64`},
		{`{"num": [1` + long + `], "cat": ["p"]}`,
			`numeric attribute "x": offset 9: number 1` + long[:maxEcho-1] + `… (1048577 bytes) overflows float64`},
		{`{"n": 1}`, `offset 1: unknown field "n"`},
		{`{"n` + long + `": 1}`, `offset 1: unknown field "n` + long[:maxEcho-1] + `"… (1048577 bytes)`},
		{`{"num": [1], "cat": ["q"]}`, `categorical attribute "c": value "q" not in domain [p]`},
		{`{"num": [1], "cat": ["` + long + `"]}`,
			`categorical attribute "c": value "` + long[:maxEcho] + `"… (1048576 bytes) not in domain [p]`},
	} {
		_, _, err := DecodeRequest([]byte(tc.body), num, cat)
		if err == nil || err.Error() != tc.want {
			t.Errorf("body of %d bytes: error %.200v, want %.200s", len(tc.body), err, tc.want)
		}
	}
}

// benchBody renders a /classify body shaped like the serve benchmark's: n
// numeric attributes, each an {"xs", "masses"} pdf of s increasing sample
// points written with strconv's 'g' at precision prec (perfbench writes 8
// significant digits; -1 is the shortest round trip, json.Marshal's), and
// the schema it decodes against.
func benchBody(n, s, prec int) ([]byte, []data.Attribute) {
	attrs := make([]data.Attribute, n)
	b := []byte(`{"num":[`)
	for j := range attrs {
		attrs[j] = data.Attribute{Name: fmt.Sprintf("A%d", j+1), Kind: data.Numeric}
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"xs":[`...)
		for i := 0; i < s; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, 100*float64(j)+float64(i)*0.73254911, 'g', prec, 64)
		}
		b = append(b, `],"masses":[`...)
		for i := 0; i < s; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			z := float64(2*i-s) / float64(s)
			b = strconv.AppendFloat(b, math.Exp(-4*z*z)/7.3, 'g', prec, 64)
		}
		b = append(b, `]}`...)
	}
	return append(b, `]}`...), attrs
}

// TestDecodeRequestAllocs pins the scanner's allocation budget on a
// benchmark-shaped body: two allocations per numeric attribute (a pdf and
// the one array behind its xs and cum) plus a small constant per request
// (the tuple, its value slice, the result slice). Scratch comes from the
// scanner pool.
func TestDecodeRequestAllocs(t *testing.T) {
	body, num := benchBody(19, 20, 8)
	tuples, _, err := DecodeRequest(body, num, nil)
	if err != nil || len(tuples) != 1 || tuples[0].Num[18].NumSamples() != 20 {
		t.Fatalf("decode: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeRequest(body, num, nil); err != nil {
			t.Fatal(err)
		}
	})
	budget := 2*len(num) + 6
	if allocs > float64(budget) {
		t.Fatalf("%.1f allocations per request, budget %d", allocs, budget)
	}
	t.Logf("%.1f allocations per request, budget %d", allocs, budget)
}

// BenchmarkDecodeRequest decodes one /classify body per op, shaped like
// the serve benchmark's (19 attributes, s = 20), at two precisions. At 8
// significant digits, as perfbench writes them, every number takes
// scanner.number's exact fast path; at the shortest round trip about half
// need 17 digits and go to strconv.ParseFloat.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, c := range []struct {
		name string
		prec int
	}{{"digits8", 8}, {"shortest", -1}} {
		body, num := benchBody(19, 20, c.prec)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := DecodeRequest(body, num, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
