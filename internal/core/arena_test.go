package core

import (
	"math/rand"
	"slices"
	"testing"

	"udt/internal/data"
	"udt/internal/pdf"
)

// TestArraysRoundTrip: an engine compiled over a copy of its own arena's
// arrays — what a binary container hands over from a mapping — must be
// indistinguishable from the original: byte-identical distributions, the
// same upper bounds, node count and reach.
func TestArraysRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ds := randomMixedDataset(rng, 150, 3, 3, 9, true)
	tree, err := Build(ds, Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if int(c.root) != c.a.Len()-1 || c.Reach() != c.a.Len() {
		t.Fatalf("root %d, reach %d over %d arena nodes: a tree's own arena ends at its root and holds nothing else",
			c.root, c.Reach(), c.a.Len())
	}
	a := Arena{
		Kind:  slices.Clone(c.a.Kind),
		Attr:  slices.Clone(c.a.Attr),
		Split: slices.Clone(c.a.Split),
		Start: slices.Clone(c.a.Start),
		Child: slices.Clone(c.a.Child),
		W:     slices.Clone(c.a.W),
		Dist:  slices.Clone(c.a.Dist),
	}
	c2 := a.Compile(c.Classes, []int32{c.root})[0]
	if c2.NumNodes() != c.NumNodes() || c2.Reach() != c.Reach() {
		t.Fatalf("rebuilt engine has %d nodes, reach %d; original %d, %d", c2.NumNodes(), c2.Reach(), c.NumNodes(), c.Reach())
	}
	probes := randomProbes(rng, ds, 200)
	for i, tu := range probes {
		want, got := c.Classify(tu), c2.Classify(tu)
		for ci := range want {
			if want[ci] != got[ci] {
				t.Fatalf("probe %d: rebuilt dist %v, original %v", i, got, want)
			}
		}
	}
	ub, ub2 := c.ClassUpperBounds(), c2.ClassUpperBounds()
	for ci := range ub {
		if ub[ci] != ub2[ci] {
			t.Fatalf("upper bounds drifted: %v vs %v", ub2, ub)
		}
	}
}

// TestCompileInternsTree: identical subtrees of one tree are stored once,
// children before parents, while NumNodes still counts every position; two
// identical trees interned under one signature share every node, and under
// different signatures share only their leaves.
func TestCompileInternsTree(t *testing.T) {
	leaf := func(p float64) *Node { return &Node{Dist: []float64{p, 1 - p}, W: 1} }
	test := func(split float64) *Node {
		return &Node{Attr: 0, Split: split, Left: leaf(1), Right: leaf(0), W: 2, ClassW: []float64{1, 1}}
	}
	tree := &Tree{
		Classes:  []string{"a", "b"},
		NumAttrs: []data.Attribute{{Name: "x"}},
		Root:     &Node{Attr: 0, Split: 5, Left: test(1), Right: test(1), W: 4, ClassW: []float64{2, 2}},
		Stats:    BuildStats{Nodes: 7},
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Leaves 1 and 0, one test node for both subtrees, the root.
	if c.NumNodes() != 7 || c.Reach() != 4 || c.a.Len() != 4 {
		t.Fatalf("NumNodes %d, Reach %d, arena %d; want 7, 4, 4", c.NumNodes(), c.Reach(), c.a.Len())
	}
	for i := 0; i < c.a.Len(); i++ {
		for _, k := range c.a.Child[c.a.Start[i]:c.a.Start[i+1]] {
			if k >= int32(i) {
				t.Fatalf("node %d has child %d: children must precede their parent", i, k)
			}
		}
	}

	in := NewInterner(2)
	r0, err := in.Add(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := in.Add(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := in.Add(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := in.Arena()
	if r0 != r1 || r2 == r0 || a.Len() != 6 {
		t.Fatalf("roots %d, %d, %d over %d nodes; want the first two equal and 6 nodes (2 leaves, 2 tests per signature)",
			r0, r1, r2, a.Len())
	}
	tu := &data.Tuple{Num: []*pdf.PDF{pdf.Point(0)}, Weight: 1}
	for _, e := range a.Compile(tree.Classes, []int32{r0, r2}) {
		if got := e.Classify(tu); got[0] != 1 || got[1] != 0 {
			t.Fatalf("engine at root %d classified %v, want [1 0]", e.root, got)
		}
	}
}

// TestSharedArenaRoot: engines whose root is not node 0 of a shared arena
// must descend from their own root. Two single-leaf trees packed into one
// arena classify to their own leaf distributions.
func TestSharedArenaRoot(t *testing.T) {
	a := Arena{
		Kind:  []uint8{KindLeaf, KindLeaf},
		Attr:  []int32{0, 0},
		Split: []float64{0, 0},
		Start: []int32{0, 0, 0},
		W:     []float64{1, 1},
		Dist:  []float64{1, 0, 0, 1},
	}
	c := a.Compile([]string{"a", "b"}, []int32{1})[0]
	tu := &data.Tuple{Weight: 1}
	got := c.Classify(tu)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("root=1 engine classified %v, want [0 1]", got)
	}
	if c.NumNodes() != 1 || c.Reach() != 1 {
		t.Fatalf("NumNodes = %d, Reach = %d, want 1 and 1", c.NumNodes(), c.Reach())
	}
	if ub := c.ClassUpperBounds(); ub[0] != 0 || ub[1] != 1 {
		t.Fatalf("upper bounds %v cover nodes the root does not reach; want [0 1]", ub)
	}
}

// TestDecompileRoundTrip: Decompile must reconstruct a tree whose recursive
// classification — and whose re-compiled engine — matches the original
// engine exactly on every probe.
func TestDecompileRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		ds := randomMixedDataset(rng, 150, 3, 3, 9, seed%2 == 0)
		tree, err := Build(ds, Config{MinWeight: 1, PostPrune: seed%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := tree.Compile()
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.Decompile()
		if err != nil {
			t.Fatal(err)
		}
		if back.Stats.Nodes != tree.Stats.Nodes || back.Stats.Leaves != tree.Stats.Leaves || back.Stats.Depth != tree.Stats.Depth {
			t.Fatalf("seed %d: decompiled stats %+v, original %+v", seed, back.Stats, tree.Stats)
		}
		rec, err := back.Compile()
		if err != nil {
			t.Fatalf("seed %d: recompile of decompiled tree: %v", seed, err)
		}
		probes := append(append([]*data.Tuple{}, ds.Tuples...), randomProbes(rng, ds, 100)...)
		for i, tu := range probes {
			want := c.Classify(tu)
			viaTree := back.Classify(tu)
			viaRec := rec.Classify(tu)
			for ci := range want {
				if want[ci] != viaTree[ci] || want[ci] != viaRec[ci] {
					t.Fatalf("seed %d probe %d: original %v, decompiled tree %v, recompiled %v",
						seed, i, want, viaTree, viaRec)
				}
			}
		}
	}
}

// TestDecompileRejectsCycles: Decompile terminates with an error on a
// malformed arena containing a cycle rather than descending forever.
func TestDecompileRejectsCycles(t *testing.T) {
	c := &Compiled{
		Classes: []string{"a", "b"},
		a: Arena{
			Kind:  []uint8{KindNum, KindNum},
			Attr:  []int32{0, 0},
			Split: []float64{0, 0},
			Start: []int32{0, 2, 4},
			Child: []int32{1, 1, 0, 0},
			W:     []float64{1, 1},
			Dist:  []float64{0, 0, 0, 0},
		},
		ub:    []float64{1, 1},
		root:  0,
		nodes: 2,
	}
	if _, err := c.Decompile(); err == nil {
		t.Fatal("cyclic arena decompiled without error")
	}
}
