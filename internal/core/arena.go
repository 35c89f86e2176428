package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file holds the one compiled node layout. Every model — a tree compiled
// on its own, a trained or JSON-loaded ensemble, a binary container mapped
// from disk — classifies over an Arena, and the binary model format
// (internal/binfmt) stores its arrays verbatim.

// Node kinds of the arena. They are wire constants: the binary container
// stores the Kind array as is, so changing them breaks every encoded model.
const (
	KindLeaf uint8 = iota // terminal: the Dist row holds the class distribution
	KindNum               // numeric test: Attr, Split, two children (left, right)
	KindCat               // categorical test: Attr, one child per domain value
)

// Arena holds the nodes of one or more trees in post-order, hash-consed, so
// that structurally identical subtrees — inside one tree or across the
// members of an ensemble — are stored once. Node i's children are
// Child[Start[i]:Start[i+1]] (CSR indexing: left/right for numeric tests,
// one entry per domain value for categorical tests), every child id is
// smaller than its parent's, and node i owns row i of Dist: the class
// distribution of a leaf, the per-class training weight of an internal node
// (missing-value routing uses it). A tree is a root id; the nodes reachable
// from it belong to the tree.
//
// An Arena is immutable once built, and the engines compiled over it alias
// its arrays.
type Arena struct {
	Kind  []uint8   // node kind (KindLeaf, KindNum, KindCat)
	Attr  []int32   // tested attribute, indexed in the tree's own schema; 0 for leaves
	Split []float64 // numeric split point ("value <= split" goes left); 0 otherwise
	Start []int32   // CSR row pointers into Child; len = nodes+1
	Child []int32   // child node ids
	W     []float64 // training weight that reached the node
	Dist  []float64 // per-node class rows; row i is Dist[i*C:(i+1)*C]
}

// Len reports the number of nodes in the arena.
func (a *Arena) Len() int { return len(a.Kind) }

// Interner builds an Arena by hash-consing trees into it, children first in
// child order: a node whose kind, attribute, split point, weight, class row
// and children match a node already in the arena is not stored again. The
// same trees interned in the same order always give the same arena, which
// makes binary container bytes a pure function of the model.
type Interner struct {
	a     Arena
	nc    int
	index map[string]int32 // structural key -> node id
	key   []byte
	row   []float64 // the node's class row, padded or cut to nc
	kids  []int32   // stack of interned child ids
}

// NewInterner returns an interner for trees over the given number of
// classes.
func NewInterner(classes int) *Interner {
	return &Interner{nc: classes, index: make(map[string]int32), row: make([]float64, classes)}
}

// Add interns t and returns the id of its root. sig tells apart trees whose
// attribute indices address different projections of an ensemble's schema:
// internal nodes interned under different signatures are never merged, while
// leaves, which test no attribute, may always be. Add checks what the
// descent relies on: leaf distributions of the interner's class arity, both
// children on numeric tests, attribute indices inside t's schema, one child
// per categorical domain value. After an error the interner must not be
// used.
func (in *Interner) Add(t *Tree, sig int32) (int32, error) {
	if t == nil || t.Root == nil {
		return 0, errors.New("core: cannot compile a tree without a root")
	}
	return in.add(t, t.Root, sig)
}

// add interns the subtree rooted at n and returns its id.
func (in *Interner) add(t *Tree, n *Node, sig int32) (int32, error) {
	var kind uint8
	var attr int32
	var split float64
	var children []*Node
	src := n.ClassW
	switch {
	case n.IsLeaf():
		if len(n.Dist) != in.nc {
			return 0, fmt.Errorf("core: leaf has %d class probabilities, want %d", len(n.Dist), in.nc)
		}
		kind, src = KindLeaf, n.Dist
	case n.Cat:
		if n.Attr < 0 || n.Attr >= len(t.CatAttrs) {
			return 0, fmt.Errorf("core: categorical test on attribute %d, schema has %d", n.Attr, len(t.CatAttrs))
		}
		if dom := len(t.CatAttrs[n.Attr].Domain); len(n.Kids) != dom {
			return 0, fmt.Errorf("core: categorical test on %q has %d children, domain has %d values",
				t.CatAttrs[n.Attr].Name, len(n.Kids), dom)
		}
		for _, kid := range n.Kids {
			if kid == nil {
				return 0, errors.New("core: categorical test with a nil child")
			}
		}
		kind, attr, children = KindCat, int32(n.Attr), n.Kids
	default:
		if n.Left == nil || n.Right == nil {
			return 0, errors.New("core: numeric test missing a child")
		}
		if n.Attr < 0 || n.Attr >= len(t.NumAttrs) {
			return 0, fmt.Errorf("core: numeric test on attribute %d, schema has %d", n.Attr, len(t.NumAttrs))
		}
		kind, attr, split, children = KindNum, int32(n.Attr), n.Split, []*Node{n.Left, n.Right}
	}
	base := len(in.kids)
	for _, kid := range children {
		g, err := in.add(t, kid, sig)
		if err != nil {
			return 0, err
		}
		in.kids = append(in.kids, g)
	}
	kids := in.kids[base:]
	row := in.row
	clear(row)
	copy(row, src)
	// The structural key holds everything that decides the subtree's
	// behaviour. A leaf's omits the signature: it tests no attribute.
	key := append(in.key[:0], kind)
	if kind != KindLeaf {
		key = binary.LittleEndian.AppendUint32(key, uint32(sig))
		key = binary.LittleEndian.AppendUint32(key, uint32(attr))
	}
	if kind == KindNum {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(split))
	}
	key = binary.LittleEndian.AppendUint64(key, math.Float64bits(n.W))
	for _, d := range row {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(d))
	}
	for _, g := range kids {
		key = binary.LittleEndian.AppendUint32(key, uint32(g))
	}
	in.key = key
	if g, ok := in.index[string(key)]; ok {
		in.kids = in.kids[:base]
		return g, nil
	}
	a := &in.a
	g := int32(len(a.Kind))
	a.Kind = append(a.Kind, kind)
	a.Attr = append(a.Attr, attr)
	a.Split = append(a.Split, split)
	a.Start = append(a.Start, int32(len(a.Child)))
	a.Child = append(a.Child, kids...)
	a.W = append(a.W, n.W)
	a.Dist = append(a.Dist, row...)
	in.index[string(key)] = g
	in.kids = in.kids[:base]
	return g, nil
}

// Arena closes the CSR row pointers and returns the arena. Call it once,
// after the last Add. The arena does not point into the interner, so the
// index is garbage once the interner is.
func (in *Interner) Arena() *Arena {
	a := in.a
	a.Start = append(a.Start, int32(len(a.Child)))
	return &a
}

// Compile returns one engine per root, each classifying over the arena's
// arrays (shared, not copied) into the given class vocabulary; the caller
// sets each engine's attribute schema. Each engine's class upper bounds,
// reach and logical node count are computed here, from the nodes reachable
// from its root. The arena must be sound: built by an Interner, or validated
// as internal/binfmt validates a container (kinds with their child arity,
// every child id below its parent's, roots in range).
func (a *Arena) Compile(classes []string, roots []int32) []*Compiled {
	nc := len(classes)
	// size[i] is the logical node count of the subtree at i: a shared
	// subtree counts once per position it fills. Children precede their
	// parents, so one forward pass settles every entry.
	size := make([]int, a.Len())
	for i := range size {
		s := 1
		for _, k := range a.Child[a.Start[i]:a.Start[i+1]] {
			if size[k] > math.MaxInt-s {
				s = math.MaxInt // only a crafted container can get here
				break
			}
			s += size[k]
		}
		size[i] = s
	}
	seen := make([]int, a.Len()) // member index + 1 of the last walk to visit the node
	var stack []int32
	out := make([]*Compiled, len(roots))
	for m, root := range roots {
		c := &Compiled{Classes: classes, a: *a, root: root, nodes: size[root], ub: make([]float64, nc)}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] == m+1 {
				continue
			}
			seen[n] = m + 1
			c.reach++
			c.bound(int(n))
			stack = append(stack, a.Child[a.Start[n]:a.Start[n+1]]...)
		}
		out[m] = c
	}
	return out
}

// bound raises c.ub to cover what node can emit. A descent emits at leaves
// (the leaf class distribution) and, when every child of a node with a
// missing test attribute carries zero training weight, at internal nodes
// (the node's class weights normalised by its own weight). The mass a
// descent distributes never exceeds the root weight (splits conserve mass,
// sub-epsilon frames are dropped), so w0 * ub[class] bounds what a whole
// classification can add to one class — the per-member bound staged
// early-exit inference accumulates over the members not yet evaluated.
func (c *Compiled) bound(node int) {
	nc := len(c.Classes)
	row := c.a.Dist[node*nc : (node+1)*nc]
	if c.a.Kind[node] == KindLeaf {
		for ci, p := range row {
			if p > c.ub[ci] {
				c.ub[ci] = p
			}
		}
		return
	}
	if nodeW := c.a.W[node]; nodeW > 0 {
		for ci, cw := range row {
			if p := cw / nodeW; p > c.ub[ci] {
				c.ub[ci] = p
			}
		}
	}
}
