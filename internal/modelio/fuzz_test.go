package modelio

import (
	"testing"

	"udt/internal/data"
	"udt/internal/forest"
)

// Native Go fuzz targets over the two adversarial decoding surfaces of the
// model I/O layer: the tuple wire format (every byte of a /classify or
// stream request body is attacker-controlled) and the model document loader
// (an operator can point the server at any file). The contract under fuzz
// is narrow and absolute: malformed input returns an error — it never
// panics, and it never half-succeeds with a nil result.
//
// Seed corpora live in testdata/fuzz/<Target>/ and are exercised as plain
// subtests on every ordinary `go test` run; CI additionally runs a short
// `-fuzz` smoke (e.g. `go test -run=^$ -fuzz=FuzzWireTuple -fuzztime=10s
// ./internal/modelio`, once per target) to probe beyond the corpus.

// fuzzSchema is the fixed attribute schema wire tuples are decoded against:
// two numeric attributes and one three-value categorical, enough shape to
// reach every branch of DecodeNum/DecodeCat.
func fuzzSchema() (num, cat []data.Attribute) {
	num = []data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "y", Kind: data.Numeric},
	}
	cat = []data.Attribute{
		{Name: "c", Kind: data.Categorical, Domain: []string{"p", "q", "r"}},
	}
	return num, cat
}

// wireTupleSeeds are tuple documents over fuzzSchema, valid and not.
var wireTupleSeeds = []string{
	`{"num": [1.5, 2], "cat": ["q"]}`,
	`{"num": [null, [2, 4]], "cat": [[1, 1, 0]]}`,
	`{"num": [{"xs": [1, 2], "masses": [1, 3]}, 0], "cat": [null]}`,
	`{"num": [1], "cat": []}`,
	`{"num": [1e308, -1e308], "cat": [[0.0, 0.0, 0.0]]}`,
	`{"num": ["abc", {}], "cat": ["zzz"]}`,
	`{"num": [{"xs": [1], "masses": []}, [null]], "cat": [[1]]}`,
	`{`,
	``,
	`null`,
	`{"num": [NaN, 1], "cat": ["p"]}`,
}

// FuzzWireTuple: arbitrary bytes through the tuple wire decoder must either
// decode into a schema-consistent tuple or error — never panic.
func FuzzWireTuple(f *testing.F) {
	for _, s := range wireTupleSeeds {
		f.Add([]byte(s))
	}
	num, cat := fuzzSchema()
	f.Fuzz(func(t *testing.T, blob []byte) {
		tu, err := DecodeWireTuple(blob, num, cat)
		if err != nil {
			if tu != nil {
				t.Fatal("DecodeWireTuple returned both a tuple and an error")
			}
			return
		}
		if tu == nil {
			t.Fatal("DecodeWireTuple returned neither a tuple nor an error")
		}
		// A successful decode must honour the schema arity; anything else
		// would panic later, mid-descent in the compiled engine.
		if len(tu.Num) != len(num) || len(tu.Cat) != len(cat) {
			t.Fatalf("decoded tuple has arity %d/%d, schema is %d/%d", len(tu.Num), len(tu.Cat), len(num), len(cat))
		}
		for j, d := range tu.Cat {
			if d != nil && len(d) != len(cat[j].Domain) {
				t.Fatalf("categorical %d decoded with %d masses, domain has %d", j, len(d), len(cat[j].Domain))
			}
		}
	})
}

// FuzzWireDecodeDifferential: arbitrary bytes through the scanner and
// through the encoding/json reference (wireref_test.go), as /classify
// bodies, against fuzzSchema and a benchmark-shaped 19-attribute schema.
// Where the reference accepts, the scanner accepts exactly when
// wireRefusals finds none of its three refusals, and the tuples are bit
// for bit the same. Where the reference refuses, so does the scanner.
func FuzzWireDecodeDifferential(f *testing.F) {
	for _, s := range wireTupleSeeds {
		f.Add([]byte(s))
	}
	bench, _ := benchBody(19, 20, 8)
	f.Add(bench)
	for _, s := range []string{
		// Batches, and null bodies and values that decode like {}.
		`{"tuples": [{"num": [1, 2], "cat": ["p"]}, {"num": [[3, 1, 2], null], "cat": [[0, 2, 1]]}]}`,
		`{"tuples": [], "num": null}`,
		`{"tuples": [null]}`,
		`{"tuples": [], "num": []}`,
		// Keys matched after unescaping and case folding (ſ folds to s).
		`{"NUM": [1, 2], "Cat": ["p"]}`,
		`{"n\u0075m": [{"XS": [1, 2], "maſſes": [1, 1]}, 2], "c\u0061t": ["\u0070"]}`,
		// Escapes in values: a surrogate pair, a lone surrogate, \/.
		`{"num": [1, 2], "cat": ["\ud83d\ude00"]}`,
		`{"num": [1, 2], "cat": ["\ud800"]}`,
		`{"num": [1, 2], "cat": ["\/"]}`,
		"{\"num\": [1, 2], \"cat\": [\"\xff\"]}",
		// Numbers at the grammar's edges.
		`{"num": [1e400, 2], "cat": [null]}`,
		`{"num": [-0, {"xs": [-0, 5e-324], "masses": [1e-12, 1]}], "cat": [null]}`,
		`{"num": [01, 2], "cat": [null]}`,
		`{"num": [1., 2], "cat": [null]}`,
		`{"num": [-, 2], "cat": [null]}`,
		`{"num": [1E+2, 2.5e-3], "cat": [null]}`,
		// The three refusals.
		`{"num": [0.2, [1, 2, 3]], "cat": ["p"]} trailing junk`,
		`{"num": [0.2, [1, 2, 3]], "cat": ["p"]}{"num": [9, 9]}`,
		`{"num": [0.2, [1, null, 3]], "cat": ["p"]}`,
		`{"num": [{"xs": [1, null], "masses": [1, 1]}, 2], "cat": ["p"]}`,
		`{"num": [1, 2], "cat": [[1, null, 0]]}`,
		`{"num": [1, 2], "NUM": [3, 4], "cat": ["p"]}`,
		`{"num": [{"xs": [1], "xs": [2], "masses": [1]}, 2], "cat": ["p"]}`,
	} {
		f.Add([]byte(s))
	}
	num, cat := fuzzSchema()
	_, benchNum := benchBody(19, 20, 8)
	schemas := [][2][]data.Attribute{{num, cat}, {benchNum, nil}}
	f.Fuzz(func(t *testing.T, blob []byte) {
		refused := wireRefusals(blob)
		for _, s := range schemas {
			got, gotBatch, err := DecodeRequest(blob, s[0], s[1])
			want, wantBatch, refErr := refDecodeRequest(blob, s[0], s[1])
			switch {
			case err == nil && refErr != nil:
				t.Fatalf("scanner accepts what the reference refuses (%v)", refErr)
			case err == nil && refused:
				t.Fatal("scanner accepts a repeated key, a null in a number array or trailing data")
			case err != nil && refErr == nil && !refused:
				t.Fatalf("scanner refuses what the reference accepts: %v", err)
			case err != nil:
				if got != nil {
					t.Fatal("DecodeRequest returned both tuples and an error")
				}
				continue
			}
			if gotBatch != wantBatch || len(got) != len(want) {
				t.Fatalf("batch %v with %d tuples, reference batch %v with %d", gotBatch, len(got), wantBatch, len(want))
			}
			for i := range got {
				if err := sameTuple(got[i], want[i]); err != nil {
					t.Fatalf("tuple %d: %v", i, err)
				}
			}
		}
	})
}

// FuzzDecodeModel: arbitrary bytes through the model loader — which routes
// between the legacy single-tree document and the v1/v2 ensemble containers
// — must either produce a servable model or error, never panic.
func FuzzDecodeModel(f *testing.F) {
	leaf := `{"dist": [1, 0], "w": 4}`
	tree := `{"classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "root": {"attr": 0, "split": 1.5, "w": 4, "classW": [2, 2], "left": ` + leaf + `, "right": {"dist": [0, 1], "w": 4}}}`
	seeds := []string{
		tree,
		`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"tree": ` + tree + `}]}`,
		`{"version": 2, "kind": "boosted", "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": 1.5, "tree": ` + tree + `}]}`,
		`{"version": 2, "kind": "bagged", "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": 1, "numIdx": [0], "catIdx": [], "tree": ` + tree + `}]}`,
		`{"version": 1, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": 2, "tree": ` + tree + `}]}`,
		`{"version": 99, "trees": []}`,
		`{"version": 2, "kind": "stacked", "classes": ["a"], "trees": [{}]}`,
		`{"root": {"dist": [1], "w": 1}}`,
		`{"root": null}`,
		`{"classes": ["a"]}`,
		`{"version": 2, "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": -3, "tree": ` + tree + `}]}`,
		`[]`,
		`{`,
		// A container may not declare kind "tree": a tree's one JSON form
		// is the single-tree document.
		`{"version": 2, "kind": "tree", "classes": ["a", "b"], "numAttrs": [{"name": "A1"}], "trees": [{"weight": 1, "tree": ` + tree + `}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := Decode(blob)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("Decode returned neither a model nor an error")
		}
		// A model that decodes must be introspectable without panicking.
		classes, _, _ := m.Schema()
		if len(classes) == 0 {
			t.Fatal("decoded model has no classes")
		}
		_ = m.Describe()
		if m.Kind() == forest.KindTree && m.NumTrees() != 1 {
			t.Fatalf("tree decoded with %d members", m.NumTrees())
		}
	})
}
