package forest

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"udt/internal/core"
)

// TestFromArenaRoundTrip: a forest reassembled from its own arena and
// members — roots only, trees dropped, as a binary load would produce — must
// classify byte-identically (full, staged, and early-exit), report the same
// stats, bounds and reach, and marshal back to a JSON container that decodes
// to the same predictions.
func TestFromArenaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := mixedDataset(rng, 240, 3, 3)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"identity", Config{Trees: 7, Seed: 11, TreeConfig: core.Config{MinWeight: 1}}},
		{"projected", Config{Trees: 7, Seed: 11, AttrsPerTree: 2, TreeConfig: core.Config{MinWeight: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := trainForest(t, ds, tc.cfg)
			arena, members := f.Arena()
			g, err := FromArena(f.Classes, f.NumAttrs, f.CatAttrs, arena, members, f.Kind(), f.OOB)
			if err != nil {
				t.Fatal(err)
			}
			logical := 0
			for i, m := range g.Members() {
				want := f.members[i].compiled
				if m.Tree != nil || m.Compiled.NumNodes() != want.NumNodes() || m.Compiled.Reach() != want.Reach() {
					t.Fatalf("member %d: tree %v, %d nodes, reach %d; want no tree, %d nodes, reach %d",
						i, m.Tree != nil, m.Compiled.NumNodes(), m.Compiled.Reach(), want.NumNodes(), want.Reach())
				}
				if ub, wub := m.Compiled.ClassUpperBounds(), want.ClassUpperBounds(); !slices.Equal(ub, wub) {
					t.Fatalf("member %d: upper bounds %v, want %v", i, ub, wub)
				}
				logical += m.Compiled.NumNodes()
			}
			// Bootstrap members repeat subtrees, leaves above all: one arena
			// holds them in fewer nodes than the members count.
			if arena.Len() >= logical {
				t.Fatalf("arena holds %d nodes for %d member nodes; nothing was shared", arena.Len(), logical)
			}
			if g.Stats() != f.Stats() {
				t.Fatalf("stats drifted: %+v vs %+v", g.Stats(), f.Stats())
			}
			if g.Describe() != f.Describe() {
				t.Fatalf("describe drifted: %q vs %q", g.Describe(), f.Describe())
			}
			probes := ds.Tuples[:100]
			for i, tu := range probes {
				want, got := f.Classify(tu), g.Classify(tu)
				for ci := range want {
					if want[ci] != got[ci] {
						t.Fatalf("probe %d: %v vs %v", i, got, want)
					}
				}
				wp, we := f.PredictEarlyExit(tu)
				gp, ge := g.PredictEarlyExit(tu)
				if wp != gp || we != ge {
					t.Fatalf("probe %d: early exit (%d,%d) vs (%d,%d)", i, gp, ge, wp, we)
				}
			}
			// The reassembled forest has no pointer trees; marshalling must
			// decompile them and the result must decode to the same model.
			blob, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			var h Forest
			if err := json.Unmarshal(blob, &h); err != nil {
				t.Fatal(err)
			}
			for i, tu := range probes {
				want, got := f.Classify(tu), h.Classify(tu)
				for ci := range want {
					if want[ci] != got[ci] {
						t.Fatalf("probe %d after JSON round-trip: %v vs %v", i, got, want)
					}
				}
			}
		})
	}
}

// TestFromArenaValidation: malformed member sets must be rejected.
func TestFromArenaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := mixedDataset(rng, 150, 2, 2)
	f := trainForest(t, ds, Config{Trees: 3, Seed: 5, TreeConfig: core.Config{MinWeight: 1}})
	arena, members := f.Arena()

	if _, err := FromArena(f.Classes, f.NumAttrs, f.CatAttrs, arena, nil, KindBagged, OOBStats{}); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := FromArena(f.Classes, f.NumAttrs, f.CatAttrs, arena, members, "stacked", OOBStats{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := FromArena(nil, f.NumAttrs, f.CatAttrs, arena, members, KindBagged, OOBStats{}); err == nil {
		t.Error("classless ensemble accepted")
	}

	bad := slices.Clone(members)
	bad[1].Root = int32(arena.Len())
	if _, err := FromArena(f.Classes, f.NumAttrs, f.CatAttrs, arena, bad, KindBagged, OOBStats{}); err == nil {
		t.Error("root beyond the arena accepted")
	}
	bad = slices.Clone(members)
	bad[0].Weight = -1
	if _, err := FromArena(f.Classes, f.NumAttrs, f.CatAttrs, arena, bad, KindBagged, OOBStats{}); err == nil {
		t.Error("negative weight accepted")
	}
	bad = slices.Clone(members)
	bad[0].NumIdx = []int{0, 1}
	if _, err := FromArena(f.Classes, f.NumAttrs, f.CatAttrs, arena, bad, KindBagged, OOBStats{}); err == nil {
		t.Error("one-sided index map accepted")
	}
	bad = slices.Clone(members)
	bad[0].NumIdx, bad[0].CatIdx = []int{0, 7}, []int{0}
	if _, err := FromArena(f.Classes, f.NumAttrs, f.CatAttrs, arena, bad, KindBagged, OOBStats{}); err == nil {
		t.Error("projection beyond the schema accepted")
	}
	if _, err := FromArena([]string{"a", "b", "c"}, f.NumAttrs, f.CatAttrs, arena, members, KindBagged, OOBStats{}); err == nil {
		t.Error("class vocabulary of another arity than the arena's rows accepted")
	}
}
