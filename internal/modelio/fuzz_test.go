package modelio

import (
	"encoding/json"
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

// FuzzWireTuple: arbitrary bytes through the tuple wire decoder must either
// decode into a schema-consistent tuple or error — never panic.
func FuzzWireTuple(f *testing.F) {
	seeds := []string{
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
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	num, cat := fuzzSchema()
	f.Fuzz(func(t *testing.T, blob []byte) {
		var wt WireTuple
		if err := json.Unmarshal(blob, &wt); err != nil {
			return
		}
		tu, err := wt.Decode(num, cat)
		if err != nil {
			return
		}
		if tu == nil {
			t.Fatal("Decode returned neither a tuple nor an error")
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
