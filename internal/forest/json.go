package forest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"udt/internal/core"
	"udt/internal/data"
)

// Forests serialise to a versioned multi-tree JSON container,
// {"version": N, "trees": [...]}. Version 2 is the current format: each
// member entry carries the tree's own single-tree document (the exact
// format "udtree train" writes for one tree), the index maps from the
// member's projected attribute schema back onto the forest schema, and the
// member's vote weight; the container-level "kind" field records whether the
// votes are uniform ("bagged") or SAMME alphas ("boosted"). Version 1
// containers — the PR 3 format, which had no weights — still decode, every
// member receiving the implicit uniform weight 1.
//
// A KindTree forest has exactly one JSON form: the legacy single-tree
// document itself ({"classes", "numAttrs", "catAttrs", "root"}, no version
// and no trees array), so a tree model file and its forest are the same
// bytes. A container that declares kind "tree" is therefore rejected.

// Version is the forest container format version this package writes.
// Decoding accepts Version and legacyVersion.
const Version = 2

// legacyVersion is the weightless PR 3 container format, decoded with
// implicit uniform member weights.
const legacyVersion = 1

type forestJSON struct {
	Version  *int         `json:"version"`
	Kind     string       `json:"kind,omitempty"` // KindBagged (or absent) | KindBoosted
	Classes  []string     `json:"classes"`
	NumAttrs []attrJSON   `json:"numAttrs"`
	CatAttrs []attrJSON   `json:"catAttrs,omitempty"`
	OOB      *OOBStats    `json:"oob,omitempty"`
	Trees    []memberJSON `json:"trees"`
	// Root marks a single-tree document: present only there, it routes the
	// decode to the tree path without a second pass over containers.
	Root json.RawMessage `json:"root,omitempty"`
}

type attrJSON struct {
	Name   string   `json:"name"`
	Domain []string `json:"domain,omitempty"`
}

type memberJSON struct {
	// NumIdx/CatIdx map member attribute positions onto forest schema
	// positions; null means identity (the member sees every attribute). An
	// empty array is meaningful — the member sees none of that kind — so
	// these fields must not use omitempty.
	NumIdx []int `json:"numIdx"`
	CatIdx []int `json:"catIdx"`
	// Weight is the member's vote weight. Version 2 writes it always; a
	// version 1 document has none, which decodes as the uniform weight 1.
	Weight *float64   `json:"weight,omitempty"`
	Tree   *core.Tree `json:"tree"`
}

// MarshalJSON implements json.Marshaler: a KindTree forest writes its
// tree's single-tree document, every other kind the versioned container.
func (f *Forest) MarshalJSON() ([]byte, error) {
	if f.Kind() == KindTree {
		tree, err := f.MemberTree(0)
		if err != nil {
			return nil, fmt.Errorf("forest: %w", err)
		}
		return json.Marshal(tree)
	}
	version := Version
	doc := forestJSON{
		Version: &version,
		Kind:    f.Kind(),
		Classes: f.Classes,
		Trees:   make([]memberJSON, len(f.members)),
	}
	for _, a := range f.NumAttrs {
		doc.NumAttrs = append(doc.NumAttrs, attrJSON{Name: a.Name})
	}
	for _, a := range f.CatAttrs {
		doc.CatAttrs = append(doc.CatAttrs, attrJSON{Name: a.Name, Domain: a.Domain})
	}
	if f.OOB.Evaluated > 0 {
		oob := f.OOB
		doc.OOB = &oob
	}
	for t := range f.members {
		m := &f.members[t]
		w := m.weight
		tree, err := f.MemberTree(t)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", t, err)
		}
		doc.Trees[t] = memberJSON{NumIdx: m.numIdx, CatIdx: m.catIdx, Weight: &w, Tree: tree}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON implements json.Unmarshaler. A single-tree document (a root,
// no version, no trees array) decodes as a KindTree forest; anything else is
// a container, whose version, member schemas, vote weights and class
// vocabularies are validated. The members are compiled into one arena, so
// the loaded forest serves immediately.
func (f *Forest) UnmarshalJSON(b []byte) error {
	var doc forestJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	if doc.Version == nil && doc.Trees == nil {
		if doc.Root == nil {
			return errors.New("forest: document is neither a tree (no root) nor a forest container (no version/trees)")
		}
		return f.unmarshalTree(b)
	}
	version := 0
	if doc.Version != nil {
		version = *doc.Version
	}
	if version != Version && version != legacyVersion {
		return fmt.Errorf("forest: unknown container version %d (want %d or %d)", version, legacyVersion, Version)
	}
	switch doc.Kind {
	case "", KindBagged, KindBoosted:
	case KindTree:
		return errors.New(`forest: a container cannot declare kind "tree"; a single tree is stored as its tree document`)
	default:
		return fmt.Errorf("forest: unknown ensemble kind %q", doc.Kind)
	}
	// Version 1 predates kinds and weights entirely; a v1 document that
	// declares "boosted" would decode with silently uniform weights — the
	// exact vote-structure flattening the per-member weight check below
	// exists to prevent.
	if version == legacyVersion && doc.Kind != "" {
		return fmt.Errorf("forest: version %d containers carry no ensemble kind (got %q)", legacyVersion, doc.Kind)
	}
	if len(doc.Trees) == 0 {
		return errors.New("forest: container has zero trees")
	}
	if len(doc.Classes) == 0 {
		return errors.New("forest: container has no classes")
	}
	f.Classes = doc.Classes
	f.NumAttrs = nil
	for _, a := range doc.NumAttrs {
		f.NumAttrs = append(f.NumAttrs, data.Attribute{Name: a.Name, Kind: data.Numeric})
	}
	f.CatAttrs = nil
	for _, a := range doc.CatAttrs {
		f.CatAttrs = append(f.CatAttrs, data.Attribute{Name: a.Name, Kind: data.Categorical, Domain: a.Domain})
	}
	if doc.OOB != nil {
		f.OOB = *doc.OOB
	} else {
		f.OOB = OOBStats{}
	}
	f.Config = Config{}
	f.kind = doc.Kind
	if f.kind == "" {
		f.kind = KindBagged
	}
	f.members = make([]member, len(doc.Trees))
	for t, mj := range doc.Trees {
		// Weights are all-or-nothing per version: a v1 document that
		// smuggles one is malformed, and a v2 member without one would
		// silently flatten a boosted model's vote structure to uniform.
		if version == legacyVersion && mj.Weight != nil {
			return fmt.Errorf("forest: tree %d: version %d containers carry no weights", t, legacyVersion)
		}
		if version == Version && mj.Weight == nil {
			return fmt.Errorf("forest: tree %d: version %d members must carry a weight", t, Version)
		}
		if mj.Tree == nil {
			return fmt.Errorf("forest: tree %d: missing tree document", t)
		}
		weight := 1.0
		if mj.Weight != nil {
			weight = *mj.Weight
		}
		f.members[t] = member{tree: mj.Tree, numIdx: mj.NumIdx, catIdx: mj.CatIdx, weight: weight, stats: mj.Tree.Stats}
	}
	return f.assemble(nil)
}

// unmarshalTree decodes a legacy single-tree document into a KindTree
// forest.
func (f *Forest) unmarshalTree(b []byte) error {
	tree := new(core.Tree)
	if err := json.Unmarshal(b, tree); err != nil {
		return err
	}
	g, err := FromTrees([]WeightedTree{{Tree: tree, Weight: 1}}, KindTree)
	if err != nil {
		return err
	}
	*f = *g
	return nil
}

// checkWeight rejects vote weights that would corrupt the weighted-average
// classification: zero or negative weights silence or invert a member, and
// non-finite ones poison every distribution.
func checkWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return fmt.Errorf("vote weight %v is not a positive finite number", w)
	}
	return nil
}

// checkMember validates one member's schema against the forest's: class
// vocabulary identity, index-map well-formedness, and attribute agreement.
// assemble runs it for every member source.
func (f *Forest) checkMember(classes []string, numAttrs, catAttrs []data.Attribute, rawNumIdx, rawCatIdx []int) (numIdx, catIdx []int, err error) {
	if err := sameClasses(f.Classes, classes); err != nil {
		return nil, nil, err
	}
	if numIdx, err = checkIdx(rawNumIdx, len(numAttrs), len(f.NumAttrs), "numIdx"); err != nil {
		return nil, nil, err
	}
	if catIdx, err = checkIdx(rawCatIdx, len(catAttrs), len(f.CatAttrs), "catIdx"); err != nil {
		return nil, nil, err
	}
	// The index maps are all-or-nothing: Train emits either both (a
	// projected member) or neither (an identity member), and the projection
	// scratch treats both-nil as identity. A mixed pair would project one
	// attribute kind and not the other, crashing mid-descent.
	if (numIdx == nil) != (catIdx == nil) {
		return nil, nil, errors.New("numIdx and catIdx must be both present or both absent")
	}
	// Attribute identity must agree between the member and the forest
	// attribute it maps to — names for both kinds, domains value-for-value
	// for categorical ones: incoming tuples are decoded against the forest
	// schema, and the member's compiled engine interprets positions and
	// domain indices against its own, so any divergence silently misroutes
	// mass.
	for k, a := range numAttrs {
		fi := k
		if numIdx != nil {
			fi = numIdx[k]
		}
		if want := f.NumAttrs[fi].Name; a.Name != want {
			return nil, nil, fmt.Errorf("numeric attribute %d is %q, container maps it to %q", k, a.Name, want)
		}
	}
	for k, a := range catAttrs {
		fi := k
		if catIdx != nil {
			fi = catIdx[k]
		}
		if want := f.CatAttrs[fi].Name; a.Name != want {
			return nil, nil, fmt.Errorf("categorical attribute %d is %q, container maps it to %q", k, a.Name, want)
		}
		want := f.CatAttrs[fi].Domain
		if len(a.Domain) != len(want) {
			return nil, nil, fmt.Errorf("categorical attribute %q has %d domain values, container has %d", a.Name, len(a.Domain), len(want))
		}
		for v := range want {
			if a.Domain[v] != want[v] {
				return nil, nil, fmt.Errorf("categorical attribute %q domain value %d is %q, container has %q", a.Name, v, a.Domain[v], want[v])
			}
		}
	}
	return numIdx, catIdx, nil
}

// sameClasses rejects members whose class vocabulary diverges from the
// container's: averaging distributions over mismatched labels would silently
// corrupt every prediction.
func sameClasses(forest, tree []string) error {
	if len(forest) != len(tree) {
		return fmt.Errorf("member has %d classes, container has %d", len(tree), len(forest))
	}
	for i := range forest {
		if forest[i] != tree[i] {
			return fmt.Errorf("member class %d is %q, container has %q", i, tree[i], forest[i])
		}
	}
	return nil
}

// checkIdx validates a member attribute index map: absent means identity
// (the member sees all forest attributes, so its schema arity must match);
// present means a projection whose entries address the forest schema.
func checkIdx(idx []int, treeAttrs, forestAttrs int, name string) ([]int, error) {
	if idx == nil {
		if treeAttrs != forestAttrs {
			return nil, fmt.Errorf("member has %d attributes, container has %d and no %s map", treeAttrs, forestAttrs, name)
		}
		return nil, nil
	}
	if len(idx) != treeAttrs {
		return nil, fmt.Errorf("%s has %d entries, member schema has %d attributes", name, len(idx), treeAttrs)
	}
	seen := make(map[int]bool, len(idx))
	for _, j := range idx {
		if j < 0 || j >= forestAttrs {
			return nil, fmt.Errorf("%s entry %d out of range [0, %d)", name, j, forestAttrs)
		}
		if seen[j] {
			return nil, fmt.Errorf("%s entry %d duplicated", name, j)
		}
		seen[j] = true
	}
	return idx, nil
}
