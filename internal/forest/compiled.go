package forest

import (
	"errors"
	"fmt"

	"udt/internal/core"
	"udt/internal/data"
)

// This file is the forest's boundary with compiled-only model storage: the
// binary container (internal/binfmt) stores ensembles as flat compiled
// arrays with no pointer trees, so it assembles forests through FromCompiled
// and disassembles them through MemberSnapshots.

// CompiledMember describes one ensemble member in compiled form: the engine,
// its vote weight, the optional projection maps from the member's attribute
// schema onto the forest's, and the member's build statistics (which a
// tree-less member cannot recompute).
type CompiledMember struct {
	Compiled *core.Compiled
	Weight   float64
	NumIdx   []int
	CatIdx   []int
	Stats    core.BuildStats
}

// FromCompiled assembles a servable model from already-compiled members —
// the constructor the binary model format uses, where there are no pointer
// trees to adopt. Validation matches the JSON path: every weight positive
// and finite, every member's class vocabulary and (possibly projected)
// attribute schema in agreement with the forest's, and the kind's
// structural rule (see checkKind).
func FromCompiled(classes []string, numAttrs, catAttrs []data.Attribute, members []CompiledMember, kind string, oob OOBStats) (*Forest, error) {
	if len(members) == 0 {
		return nil, errors.New("forest: ensemble needs at least one member")
	}
	if len(classes) == 0 {
		return nil, errors.New("forest: ensemble needs a class vocabulary")
	}
	f := &Forest{
		Classes:  classes,
		NumAttrs: numAttrs,
		CatAttrs: catAttrs,
		OOB:      oob,
		kind:     kind,
		members:  make([]member, len(members)),
	}
	for t, cm := range members {
		if cm.Compiled == nil {
			return nil, fmt.Errorf("forest: member %d: missing compiled engine", t)
		}
		if err := checkWeight(cm.Weight); err != nil {
			return nil, fmt.Errorf("forest: member %d: %w", t, err)
		}
		numIdx, catIdx, err := f.checkMember(cm.Compiled.Classes, cm.Compiled.NumAttrs, cm.Compiled.CatAttrs, cm.NumIdx, cm.CatIdx)
		if err != nil {
			return nil, fmt.Errorf("forest: member %d: %w", t, err)
		}
		f.members[t] = member{
			compiled: cm.Compiled,
			numIdx:   numIdx,
			catIdx:   catIdx,
			weight:   cm.Weight,
			stats:    cm.Stats,
		}
	}
	if err := f.checkKind(); err != nil {
		return nil, err
	}
	f.initStaged()
	return f, nil
}

// MemberSnapshots returns the ensemble members in compiled form, in member
// (storage) order — the view the binary encoder serialises. The compiled
// engines and index maps are shared with the forest, not copied.
func (f *Forest) MemberSnapshots() []CompiledMember {
	out := make([]CompiledMember, len(f.members))
	for t := range f.members {
		m := &f.members[t]
		out[t] = CompiledMember{
			Compiled: m.compiled,
			Weight:   m.weight,
			NumIdx:   m.numIdx,
			CatIdx:   m.catIdx,
			Stats:    m.stats,
		}
	}
	return out
}
