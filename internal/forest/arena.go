package forest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"udt/internal/core"
	"udt/internal/data"
)

// Every model source ends in one constructor, assemble: trained ensembles,
// FromTrees, JSON containers and binary containers (through FromArena). It
// compiles every member over one core.Arena, so a forest's members share
// their common subtrees, and a model mapped from a binary container differs
// from one compiled from trees only in the memory behind the arena.

// Member is one ensemble member as the binary container stores it: the id of
// its root in the forest's arena, its vote weight, the projection of its
// attribute schema onto the forest's (both nil for a member that sees every
// attribute) and its build statistics.
type Member struct {
	Root   int32
	Weight float64
	NumIdx []int
	CatIdx []int
	Stats  core.BuildStats
}

// FromArena assembles a model whose members are roots in an already built
// arena — the constructor the binary container uses, where there are no
// pointer trees. Each member sees the forest's schema through its
// projection. The arena must be sound (see core.Arena.Compile); FromArena
// checks that its class rows have the vocabulary's arity, and every other
// rule as for trees: a root in range, a positive finite weight, a
// well-formed projection, and the kind's structural rule (see checkKind).
func FromArena(classes []string, numAttrs, catAttrs []data.Attribute, arena *core.Arena, members []Member, kind string, oob OOBStats) (*Forest, error) {
	if len(members) == 0 {
		return nil, errors.New("forest: ensemble needs at least one member")
	}
	if len(arena.Dist) != arena.Len()*len(classes) {
		return nil, fmt.Errorf("forest: arena has %d class entries for %d nodes of %d classes", len(arena.Dist), arena.Len(), len(classes))
	}
	f := &Forest{
		Classes:  classes,
		NumAttrs: numAttrs,
		CatAttrs: catAttrs,
		OOB:      oob,
		kind:     kind,
		members:  make([]member, len(members)),
	}
	for t, m := range members {
		if m.Root < 0 || int(m.Root) >= arena.Len() {
			return nil, fmt.Errorf("forest: tree %d: root %d out of range [0,%d)", t, m.Root, arena.Len())
		}
		f.members[t] = member{root: m.Root, numIdx: m.NumIdx, catIdx: m.CatIdx, weight: m.Weight, stats: m.Stats}
	}
	if err := f.assemble(arena); err != nil {
		return nil, err
	}
	return f, nil
}

// Arena returns the arena every member's engine runs over and the members
// in member order — what the binary container writes. The arena and the
// projections are shared with the forest, not copied.
func (f *Forest) Arena() (*core.Arena, []Member) {
	out := make([]Member, len(f.members))
	for t := range f.members {
		m := &f.members[t]
		out[t] = Member{Root: m.root, Weight: m.weight, NumIdx: m.numIdx, CatIdx: m.catIdx, Stats: m.stats}
	}
	return f.arena, out
}

// assemble is the one forest constructor. f holds the schema, kind and OOB
// statistics, and each member its weight, projection, stats and — for every
// source but a binary container — its tree. assemble checks every member
// against the forest; when arena is nil it interns the member trees into a
// new one, in member order, each under its projection's signature; then it
// compiles every member's engine over the arena and precomputes the staged
// evaluation state.
func (f *Forest) assemble(arena *core.Arena) error {
	if len(f.Classes) == 0 {
		return errors.New("forest: ensemble needs a class vocabulary")
	}
	for t := range f.members {
		m := &f.members[t]
		if err := checkWeight(m.weight); err != nil {
			return fmt.Errorf("forest: tree %d: %w", t, err)
		}
		classes, num, cat := f.memberSchema(m)
		var err error
		if m.numIdx, m.catIdx, err = f.checkMember(classes, num, cat, m.numIdx, m.catIdx); err != nil {
			return fmt.Errorf("forest: tree %d: %w", t, err)
		}
	}
	if err := f.checkKind(); err != nil {
		return err
	}
	if arena == nil {
		in := core.NewInterner(len(f.Classes))
		sigs := map[string]int32{}
		for t := range f.members {
			m := &f.members[t]
			sig := projSignature(m.numIdx, m.catIdx)
			id, ok := sigs[sig]
			if !ok {
				id = int32(len(sigs))
				sigs[sig] = id
			}
			var err error
			if m.root, err = in.Add(m.tree, id); err != nil {
				return fmt.Errorf("forest: tree %d: %w", t, err)
			}
		}
		arena = in.Arena()
	}
	roots := make([]int32, len(f.members))
	for t := range f.members {
		roots[t] = f.members[t].root
	}
	for t, c := range arena.Compile(f.Classes, roots) {
		m := &f.members[t]
		_, c.NumAttrs, c.CatAttrs = f.memberSchema(m)
		m.compiled = c
	}
	f.arena = arena
	f.initStaged()
	return nil
}

// memberSchema returns the schema member m's attribute indices address: its
// tree's, or for a member without one the forest's seen through its
// projection.
func (f *Forest) memberSchema(m *member) (classes []string, num, cat []data.Attribute) {
	if m.tree != nil {
		return m.tree.Classes, m.tree.NumAttrs, m.tree.CatAttrs
	}
	return f.Classes, projectAttrs(f.NumAttrs, m.numIdx), projectAttrs(f.CatAttrs, m.catIdx)
}

// projectAttrs returns the attributes a projection selects, or attrs itself
// for the identity (nil) projection. An out-of-range entry yields a blank
// attribute, which checkMember then rejects with the canonical error.
func projectAttrs(attrs []data.Attribute, idx []int) []data.Attribute {
	if idx == nil {
		return attrs
	}
	out := make([]data.Attribute, len(idx))
	for k, j := range idx {
		if j >= 0 && j < len(attrs) {
			out[k] = attrs[j]
		}
	}
	return out
}

// projSignature returns a canonical byte string for a member's projection
// ("" for identity members). Members with different signatures read
// different forest attributes at the same member-local index, so their
// internal nodes must never be merged.
func projSignature(numIdx, catIdx []int) string {
	if numIdx == nil && catIdx == nil {
		return ""
	}
	var b []byte
	b = append(b, 'n')
	for _, j := range numIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(j))
	}
	b = append(b, 'c')
	for _, j := range catIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(j))
	}
	return string(b)
}
