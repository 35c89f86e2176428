package binfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"udt/internal/boost"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/pdf"
)

// testDataset builds a small mixed dataset (numeric pdfs, one categorical
// attribute, some missing values) with class structure.
func testDataset(seed int64, n int) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &data.Dataset{Name: "binfmt", Classes: []string{"a", "b", "c"}}
	for j := 0; j < 3; j++ {
		ds.NumAttrs = append(ds.NumAttrs, data.Attribute{Name: "N" + string(rune('1'+j)), Kind: data.Numeric})
	}
	ds.CatAttrs = append(ds.CatAttrs, data.Attribute{Name: "C1", Kind: data.Categorical, Domain: []string{"x", "y", "z"}})
	for i := 0; i < n; i++ {
		c := i % 3
		tu := &data.Tuple{Class: c, Weight: 1}
		for j := 0; j < 3; j++ {
			if rng.Float64() < 0.05 {
				tu.Num = append(tu.Num, nil)
				continue
			}
			center := float64(c*8 + j)
			p, err := pdf.Uniform(center-2+rng.Float64(), center+2+rng.Float64(), 7)
			if err != nil {
				panic(err)
			}
			tu.Num = append(tu.Num, p)
		}
		d := data.CatDist{0.2, 0.2, 0.2}
		d[c%3] += 0.4
		tu.Cat = append(tu.Cat, d)
		ds.Tuples = append(ds.Tuples, tu)
	}
	return ds
}

// encodeToFile writes the container to a temp file and returns its path.
func encodeToFile(t *testing.T, write func(*bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.udt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameDist fails unless the two distributions are byte-identical.
func sameDist(t *testing.T, what string, i int, got, want []float64) {
	t.Helper()
	for ci := range want {
		if got[ci] != want[ci] {
			t.Fatalf("%s probe %d: %v, want %v", what, i, got, want)
		}
	}
}

// TestTreeRoundTrip: encode a single tree, load it via mmap and via the slab
// path, and require classifications byte-identical to the tree's own
// compiled engine on training tuples.
func TestTreeRoundTrip(t *testing.T) {
	ds := testDataset(3, 180)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tf, err := forest.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	path := encodeToFile(t, func(b *bytes.Buffer) error { return EncodeForest(b, tf) })

	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if k, n := c.Forest.Kind(), c.Forest.NumTrees(); k != forest.KindTree || n != 1 {
		t.Fatalf("loaded kind %q with %d members, want a one-member tree", k, n)
	}
	if s := c.Forest.Stats(); s.Nodes != tree.Stats.Nodes || s.Depth != tree.Stats.Depth {
		t.Fatalf("tree stats %+v, want %+v", s, tree.Stats)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := DecodeBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if slab.Mapped() {
		t.Fatal("DecodeBytes produced a mapped container")
	}
	for i, tu := range ds.Tuples {
		want := compiled.Classify(tu)
		sameDist(t, "mmap", i, c.Forest.Classify(tu), want)
		sameDist(t, "slab", i, slab.Forest.Classify(tu), want)
	}
}

// TestTreeContainerRule: a tree container holds exactly one member of vote
// weight 1 with no OOB statistics. Relabelling valid ensemble containers as
// trees must be refused, with the violated rule named.
func TestTreeContainerRule(t *testing.T) {
	ds := testDataset(19, 120)
	cfg := core.Config{MinWeight: 1}
	boosted, err := boost.Train(ds, boost.Config{Rounds: 1, TreeConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		f    *forest.Forest
		want string
	}{
		"two members":  {mustTrain(t, ds, forest.Config{Trees: 2, Seed: 1, TreeConfig: cfg}), "exactly one member"},
		"OOB section":  {mustTrain(t, ds, forest.Config{Trees: 1, Seed: 1, TreeConfig: cfg}), "out-of-bag"},
		"alpha weight": {boosted, "vote weight"},
	} {
		var buf bytes.Buffer
		if err := EncodeForest(&buf, tc.f); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		img[len(Magic)+4] = byte(kindTree)
		_, err := DecodeBytes(img)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s relabelled as a tree: error %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestForestRoundTrip: bagged (identity and projected members) and boosted
// ensembles survive the binary round trip with byte-identical full, staged,
// and early-exit predictions, and preserved OOB/stats metadata.
func TestForestRoundTrip(t *testing.T) {
	ds := testDataset(11, 240)
	boosted, err := boost.Train(ds, boost.Config{Rounds: 5, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*forest.Forest{
		"bagged":    mustTrain(t, ds, forest.Config{Trees: 6, Seed: 2, TreeConfig: core.Config{MinWeight: 1}}),
		"projected": mustTrain(t, ds, forest.Config{Trees: 6, Seed: 2, AttrsPerTree: 2, TreeConfig: core.Config{MinWeight: 1}}),
		"boosted":   boosted,
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			path := encodeToFile(t, func(b *bytes.Buffer) error { return EncodeForest(b, f) })
			c, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Forest.Kind() != f.Kind() {
				t.Fatalf("loaded kind %q, want %q", c.Forest.Kind(), f.Kind())
			}
			g := c.Forest
			if g.OOB != f.OOB {
				t.Fatalf("OOB %+v, want %+v", g.OOB, f.OOB)
			}
			if g.Stats().Nodes != f.Stats().Nodes || g.Stats().Depth != f.Stats().Depth || g.Stats().Leaves != f.Stats().Leaves {
				t.Fatalf("stats %+v, want %+v", g.Stats(), f.Stats())
			}
			if g.NumTrees() != f.NumTrees() {
				t.Fatalf("%d trees, want %d", g.NumTrees(), f.NumTrees())
			}
			for i, tu := range ds.Tuples {
				sameDist(t, "classify", i, g.Classify(tu), f.Classify(tu))
				wp, we := f.PredictEarlyExit(tu)
				gp, ge := g.PredictEarlyExit(tu)
				if wp != gp || we != ge {
					t.Fatalf("probe %d: early exit (%d,%d), want (%d,%d)", i, gp, ge, wp, we)
				}
				for k := 1; k <= f.StageCount(); k += 2 {
					wd, err := f.ClassifyStaged(tu, k)
					if err != nil {
						t.Fatal(err)
					}
					gd, err := g.ClassifyStaged(tu, k)
					if err != nil {
						t.Fatal(err)
					}
					sameDist(t, "staged", i, gd, wd)
				}
			}
		})
	}
}

func mustTrain(t *testing.T, ds *data.Dataset, cfg forest.Config) *forest.Forest {
	t.Helper()
	f, err := forest.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEncodeDeterministic: the container bytes are a pure function of the
// model — two encodes of the same forest are byte-identical.
func TestEncodeDeterministic(t *testing.T) {
	ds := testDataset(5, 200)
	f := mustTrain(t, ds, forest.Config{Trees: 5, Seed: 9, TreeConfig: core.Config{MinWeight: 1}})
	var a, b bytes.Buffer
	if err := EncodeForest(&a, f); err != nil {
		t.Fatal(err)
	}
	if err := EncodeForest(&b, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of the same forest differ")
	}
}

// TestHashConsing: an ensemble of identical members (same seed, full
// sample — or simply the same tree repeated) must share one subtree in the
// arena: the container barely grows with member count.
func TestHashConsing(t *testing.T) {
	ds := testDataset(7, 200)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	single := []forest.WeightedTree{{Tree: tree, Compiled: compiled, Weight: 1}}
	many := make([]forest.WeightedTree, 16)
	for i := range many {
		many[i] = forest.WeightedTree{Tree: tree, Compiled: compiled, Weight: 1}
	}
	f1, err := forest.FromTrees(single, forest.KindBagged)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := forest.FromTrees(many, forest.KindBagged)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b16 bytes.Buffer
	if err := EncodeForest(&b1, f1); err != nil {
		t.Fatal(err)
	}
	if err := EncodeForest(&b16, f16); err != nil {
		t.Fatal(err)
	}
	// 16 identical members add only per-member metadata (roots, weights,
	// ub, stats), not nodes: well under 2 KiB on top of the single-member
	// container.
	if grow := b16.Len() - b1.Len(); grow > 2048 {
		t.Fatalf("16 identical members grew the container by %d bytes; hash-consing is not sharing the subtree", grow)
	}
	// And the deduped container still classifies identically.
	c, err := DecodeBytes(b16.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range ds.Tuples[:50] {
		sameDist(t, "dedup", i, c.Forest.Classify(tu), f16.Classify(tu))
	}
}

// TestDecodeRejectsCorruption: systematic corruption of a valid container —
// truncations at every section boundary, bit flips in the header, oversized
// and misaligned section entries — must produce errors naming a file
// offset, never a panic or a silently wrong model.
func TestDecodeRejectsCorruption(t *testing.T) {
	ds := testDataset(13, 160)
	f := mustTrain(t, ds, forest.Config{Trees: 3, Seed: 4, TreeConfig: core.Config{MinWeight: 1}})
	var buf bytes.Buffer
	if err := EncodeForest(&buf, f); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	if _, err := DecodeBytes(nil); err == nil {
		t.Error("empty image decoded")
	}
	for _, cut := range []int{1, len(Magic), len(Magic) + 8, 71, 72, 100, len(img) / 2, len(img) - 1} {
		if cut >= len(img) {
			continue
		}
		if _, err := DecodeBytes(img[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded", cut)
		}
	}
	// Flip every byte of the preamble (magic + header + first table entry)
	// one at a time; most flips must fail, none may panic, and any that
	// still decode must still serve (padding bytes are the exception — there
	// are none in the preamble except reserved header words).
	for off := 0; off < 72+24; off++ {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x40
		c, err := DecodeBytes(mut)
		if err == nil && c == nil {
			t.Fatalf("flip at %d: nil container and nil error", off)
		}
	}
	// Oversize a section size field in the table: must be rejected, not
	// over-read.
	mut := append([]byte(nil), img...)
	entry := 72 + 1*24 // second section entry (kind); size at +16
	mut[entry+16] = 0xFF
	mut[entry+17] = 0xFF
	if _, err := DecodeBytes(mut); err == nil {
		t.Error("oversized section accepted")
	}

	// A member that sees every attribute is checked against the full schema
	// even when another member is projected.
	if img, off := mixedProjectionMutant(t); true {
		_, err := DecodeBytes(img)
		want := fmt.Sprintf("offset %d:", off)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("attribute beyond the schema in an unprojected member: error %v, want one at %q", err, want)
		}
	}

	// Early exit trusts the stored upper bounds, and the stats record each
	// member's reach: a container whose bounds or reach are not what its
	// arena gives is refused, and the error names the entry.
	for name, mutant := range boundMutants(t) {
		_, err := DecodeBytes(mutant.img)
		want := fmt.Sprintf("offset %d:", mutant.off)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one at %q", name, err, want)
		}
	}
}

// boundMutant is a container whose bound or reach entry at off disagrees with
// its arena.
type boundMutant struct {
	img []byte
	off int
}

// boundMutants encodes an 8-member boosted ensemble and returns copies with
// every upper bound zeroed, and with one member's reach off by one.
func boundMutants(t testing.TB) map[string]boundMutant {
	t.Helper()
	ds := testDataset(11, 240)
	f, err := boost.Train(ds, boost.Config{Rounds: 8, TreeConfig: boost.WeakMemberConfig(core.Config{MinWeight: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 8 {
		t.Fatalf("boosting kept %d members, want 8", f.NumTrees())
	}
	var buf bytes.Buffer
	if err := EncodeForest(&buf, f); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	ubOff, ubSize := sectionSpan(t, img, ubSection)
	zeroed := bytes.Clone(img)
	clear(zeroed[ubOff : ubOff+ubSize])
	statsOff, _ := sectionSpan(t, img, statsSection)
	reach := statsOff + (2*statsWords+4)*8 // member 2's reach word
	bumped := bytes.Clone(img)
	bumped[reach]++
	// The first nonzero bound is the first entry that disagrees.
	first := ubOff
	for first < ubOff+ubSize && binary.LittleEndian.Uint64(img[first:]) == 0 {
		first += 8
	}
	return map[string]boundMutant{
		"zeroed upper bounds": {zeroed, first},
		"reach off by one":    {bumped, reach},
	}
}

// mixedProjectionMutant encodes a bagged container whose first member sees
// every attribute and whose second is projected, then points the first
// member's root test at an attribute beyond the schema. It returns the image
// and the offset of that attribute entry.
func mixedProjectionMutant(t testing.TB) ([]byte, int) {
	t.Helper()
	ds := testDataset(13, 160)
	full, err := core.Build(ds, core.Config{MinWeight: 1, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	leaf := &core.Tree{Classes: ds.Classes, NumAttrs: ds.NumAttrs[:1], Root: &core.Node{Dist: []float64{1, 0, 0}, W: 1}}
	in := core.NewInterner(len(ds.Classes))
	r0, err := in.Add(full, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := in.Add(leaf, 1)
	if err != nil {
		t.Fatal(err)
	}
	arena := in.Arena()
	f, err := forest.FromArena(ds.Classes, ds.NumAttrs, ds.CatAttrs, arena, []forest.Member{
		{Root: r0, Weight: 1, Stats: full.Stats},
		{Root: r1, Weight: 1, NumIdx: []int{0}, CatIdx: []int{}, Stats: core.BuildStats{Nodes: 1, Leaves: 1, Depth: 1}},
	}, forest.KindBagged, forest.OOBStats{})
	if err != nil {
		t.Fatal(err)
	}
	if arena.Kind[r0] == core.KindLeaf {
		t.Fatal("the unprojected member is a single leaf")
	}
	var buf bytes.Buffer
	if err := EncodeForest(&buf, f); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	attrOff, _ := sectionSpan(t, img, attrSection)
	off := attrOff + int(r0)*4
	binary.LittleEndian.PutUint32(img[off:], 99)
	return img, off
}

// sectionSpan returns the offset and size of the section with the given id.
func sectionSpan(t testing.TB, img []byte, id uint32) (off, size int) {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(img[len(Magic)+40:]))
	for i := 0; i < n; i++ {
		e := img[tableEnd(i):]
		if binary.LittleEndian.Uint32(e) == id {
			return int(binary.LittleEndian.Uint64(e[8:])), int(binary.LittleEndian.Uint64(e[16:]))
		}
	}
	t.Fatalf("container has no section %d", id)
	return 0, 0
}

// TestLoadMissingFile: Load on a nonexistent path reports the path.
func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.udt")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestCloseIdempotent: Close must be safe to call twice — and from many
// goroutines at once — on both mapped and slab containers, and on nil. A
// registry evicting a model can race its hot-reload drain's retire; only one
// of them may run the munmap. Run under -race.
func TestCloseIdempotent(t *testing.T) {
	ds := testDataset(17, 120)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	tf, err := forest.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	path := encodeToFile(t, func(b *bytes.Buffer) error { return EncodeForest(b, tf) })

	mapped, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := DecodeBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Container{"mapped": mapped, "slab": slab} {
		t.Run(name, func(t *testing.T) {
			wasMapped := c.Mapped()
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := c.Close(); err != nil {
						t.Errorf("concurrent Close: %v", err)
					}
				}()
			}
			wg.Wait()
			if err := c.Close(); err != nil {
				t.Fatalf("repeat Close: %v", err)
			}
			if c.Mapped() != wasMapped {
				t.Fatalf("Mapped changed across Close: was %v, now %v", wasMapped, c.Mapped())
			}
		})
	}
	var nilC *Container
	if err := nilC.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}
