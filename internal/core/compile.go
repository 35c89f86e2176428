package core

import (
	"errors"
	"fmt"
	"sync"

	"udt/internal/data"
	"udt/internal/par"
	"udt/internal/pdf"
)

// This file implements the compiled inference engine: a Tree flattened into
// contiguous arrays, classified by an iterative descent that performs no
// steady-state heap allocation. The recursive Classify of classify.go remains
// the semantic reference; TestCompiledMatchesRecursive pins the two paths to
// each other over randomized trees and tuples.

// Node kinds in the compiled layout.
const (
	ckLeaf uint8 = iota // terminal: dist row holds the class distribution
	ckNum               // numeric test: attr, split, two children (left, right)
	ckCat               // categorical test: attr, one child per domain value
)

// Compiled is a decision tree flattened into a struct-of-arrays layout for
// fast inference. Node i's children are child[start[i]:start[i+1]] (CSR
// indexing: left/right for numeric tests, one entry per domain value for
// categorical tests), and node i owns row i of the dist arena — the leaf
// class distribution for leaves, the per-class training weight (used by
// missing-value routing) for internal nodes.
//
// A Compiled is immutable after construction and safe for concurrent use.
//
// The arrays need not be exclusive to one tree: several Compiled engines can
// share one arena (the binary model format hash-conses identical subtrees
// across ensemble members into shared ranges), in which case each engine
// keeps its own root index and only the nodes reachable from it belong to
// the tree. Tree.Compile always produces a root of 0 over a private arena.
type Compiled struct {
	Classes  []string
	NumAttrs []data.Attribute
	CatAttrs []data.Attribute

	kind  []uint8   // node kind (ckLeaf, ckNum, ckCat)
	attr  []int32   // tested attribute index, by kind
	split []float64 // numeric split point ("value <= split" goes left)
	start []int32   // CSR row pointers into child; len = nodes+1
	child []int32   // child node indices
	w     []float64 // training weight that reached the node
	dist  []float64 // arena of per-node class rows; row i is dist[i*C:(i+1)*C]
	ub    []float64 // per-class emission upper bound; see ClassUpperBounds
	root  int32     // descent entry point (0 for Tree.Compile output)
	nodes int       // nodes reachable from root (len(kind) for private arenas)
}

// Compile flattens the pointer-linked tree into the contiguous Compiled
// layout, validating structural invariants (leaf distribution arity, both
// children present on numeric tests, children matching the categorical
// domain) that the recursive path would only surface as panics mid-descent.
func (t *Tree) Compile() (*Compiled, error) {
	if t == nil || t.Root == nil {
		return nil, errors.New("core: cannot compile a tree without a root")
	}
	nc := len(t.Classes)
	if nc == 0 {
		return nil, errors.New("core: cannot compile a tree without classes")
	}
	c := &Compiled{
		Classes:  t.Classes,
		NumAttrs: t.NumAttrs,
		CatAttrs: t.CatAttrs,
	}
	// Breadth-first flattening: while node i is processed its children are
	// appended to the order, so siblings receive consecutive indices and the
	// CSR child array gains its row structure for free.
	order := []*Node{t.Root}
	for i := 0; i < len(order); i++ {
		n := order[i]
		c.start = append(c.start, int32(len(c.child)))
		c.w = append(c.w, n.W)
		base := len(c.dist)
		c.dist = append(c.dist, make([]float64, nc)...)
		switch {
		case n.IsLeaf():
			if len(n.Dist) != nc {
				return nil, fmt.Errorf("core: leaf has %d class probabilities, want %d", len(n.Dist), nc)
			}
			c.kind = append(c.kind, ckLeaf)
			c.attr = append(c.attr, 0)
			c.split = append(c.split, 0)
			copy(c.dist[base:], n.Dist)
		case n.Cat:
			if n.Attr < 0 || n.Attr >= len(t.CatAttrs) {
				return nil, fmt.Errorf("core: categorical test on attribute %d, schema has %d", n.Attr, len(t.CatAttrs))
			}
			if dom := len(t.CatAttrs[n.Attr].Domain); len(n.Kids) != dom {
				return nil, fmt.Errorf("core: categorical test on %q has %d children, domain has %d values",
					t.CatAttrs[n.Attr].Name, len(n.Kids), dom)
			}
			c.kind = append(c.kind, ckCat)
			c.attr = append(c.attr, int32(n.Attr))
			c.split = append(c.split, 0)
			copy(c.dist[base:], n.ClassW)
			for _, kid := range n.Kids {
				if kid == nil {
					return nil, errors.New("core: categorical test with a nil child")
				}
				c.child = append(c.child, int32(len(order)))
				order = append(order, kid)
			}
		default:
			if n.Left == nil || n.Right == nil {
				return nil, errors.New("core: numeric test missing a child")
			}
			if n.Attr < 0 || n.Attr >= len(t.NumAttrs) {
				return nil, fmt.Errorf("core: numeric test on attribute %d, schema has %d", n.Attr, len(t.NumAttrs))
			}
			c.kind = append(c.kind, ckNum)
			c.attr = append(c.attr, int32(n.Attr))
			c.split = append(c.split, n.Split)
			copy(c.dist[base:], n.ClassW)
			c.child = append(c.child, int32(len(order)))
			order = append(order, n.Left)
			c.child = append(c.child, int32(len(order)))
			order = append(order, n.Right)
		}
	}
	c.start = append(c.start, int32(len(c.child)))
	c.root = 0
	c.nodes = len(c.kind)
	c.computeClassUpperBounds()
	return c, nil
}

// computeClassUpperBounds fills c.ub: for each class, the largest probability
// any single point of the descent can emit for it. A descent emits at leaves
// (the leaf class distribution) and, when every child of a node with a
// missing test attribute carries zero training weight, at internal nodes (the
// node's class weights normalised by its own weight). The total mass a
// descent distributes across emissions never exceeds the root weight (splits
// conserve mass, sub-epsilon frames are dropped), so w0 * ub[class] bounds
// the contribution a whole classification can make to one class — the
// per-member bound staged early-exit inference accumulates over the members
// not yet evaluated.
func (c *Compiled) computeClassUpperBounds() {
	nc := len(c.Classes)
	c.ub = make([]float64, nc)
	for node := range c.kind {
		row := c.dist[node*nc : (node+1)*nc]
		switch c.kind[node] {
		case ckLeaf:
			for ci, p := range row {
				if p > c.ub[ci] {
					c.ub[ci] = p
				}
			}
		default:
			// Internal fallback emission: row holds class weights, scaled by
			// the node weight when routeMissing bottoms out here.
			if nodeW := c.w[node]; nodeW > 0 {
				for ci, cw := range row {
					if p := cw / nodeW; p > c.ub[ci] {
						c.ub[ci] = p
					}
				}
			}
		}
	}
}

// ClassUpperBounds returns, per class, an upper bound on the probability mass
// a classification of any tuple can assign to that class (before weighting):
// Classify(tu)[c] <= ClassUpperBounds()[c] for every tuple, up to the
// floating-point rounding of the descent's summation — consumers must add
// their own rounding slack (forest early exit does). The returned slice is a
// copy.
func (c *Compiled) ClassUpperBounds() []float64 {
	out := make([]float64, len(c.ub))
	copy(out, c.ub)
	return out
}

// NumNodes reports the number of nodes in the compiled tree: the nodes
// reachable from its root, which is every node of the arena for trees built
// by Tree.Compile but may be a subset when the arena is shared.
func (c *Compiled) NumNodes() int { return c.nodes }

// cframe is one pending branch of the iterative descent: a node to visit,
// the probability mass arriving there, and the head of its path's override
// list (-1 while the path has narrowed no attribute).
type cframe struct {
	node int32
	head int32
	w    float64
}

// override is one entry of a path's override list. The entries of every
// path of a descent share the slab scratch.ovr: a straddle or a
// categorical branch appends an entry that names the one its path had
// before (prev), so a path's list is persistent, no longer than its depth,
// and never copied. A numeric entry (key a) holds the piece nested SplitAt
// calls would have made of numeric attribute a: the tuple pdf's samples
// [lo, hi), renormalised by the steps s.steps[cs:ce], oldest first. A
// categorical entry (key ^a) records that categorical attribute a collapsed
// onto domain value lo, the NewCatPoint of the recursive path.
type override struct {
	prev, key int32
	lo, hi    int32
	cs, ce    int32
}

// scratch holds the reusable state of one descent. All slices are slabs that
// grow to the working-set size and are then recycled via scratchPool, so a
// warm classify call allocates nothing. Their size depends on the tree and
// on which nodes the tuple straddles, never on its pdfs' sample counts.
type scratch struct {
	frames []cframe
	ovr    []override
	steps  []pdf.Step // renormalisation chains of the numeric overrides
	out    []float64  // Predict's distribution buffer
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) reset() {
	s.frames = s.frames[:0]
	s.ovr = s.ovr[:0]
	s.steps = s.steps[:0]
}

// find returns the newest entry for key on the list that starts at head, or
// -1 when the path has not narrowed that attribute.
//
//udt:hotpath
func (s *scratch) find(head, key int32) int32 {
	for head >= 0 && s.ovr[head].key != key {
		head = s.ovr[head].prev
	}
	return head
}

// push appends an override to the slab and returns its index.
//
//udt:hotpath
func (s *scratch) push(o override) int32 {
	s.ovr = append(s.ovr, o)
	return int32(len(s.ovr) - 1)
}

// piece pushes the numeric override for samples [lo, hi) of attribute a,
// whose chain is the path's chain for a followed by step.
//
//udt:hotpath
func (s *scratch) piece(head, a int32, lo, hi int, chain []pdf.Step, step pdf.Step) int32 {
	cs := len(s.steps)
	s.steps = append(s.steps, chain...)
	s.steps = append(s.steps, step)
	return s.push(override{prev: head, key: a, lo: int32(lo), hi: int32(hi), cs: int32(cs), ce: int32(len(s.steps))})
}

// outBuf returns a zeroed distribution buffer of the given arity.
//
//udt:hotpath
func (s *scratch) outBuf(nc int) []float64 {
	if cap(s.out) < nc {
		s.out = make([]float64, nc) //udt:alloc-ok amortised warm-up growth of pooled scratch
	}
	s.out = s.out[:nc]
	for i := range s.out {
		s.out[i] = 0
	}
	return s.out
}

// classify runs the iterative descent, accumulating w0 times the tuple's
// class distribution into out (len == len(c.Classes), zeroed by the caller).
// Children are pushed in reverse so the LIFO stack visits leaves in exactly
// the recursive order, keeping the floating-point summation identical to
// Tree.Classify. A straddled pdf is never copied: the path's override list
// holds the piece as a window into the tuple's pdf plus its renormalisation
// chain, and pdf.Cut splits it with SplitAt's arithmetic, bit for bit.
//
//udt:hotpath
func (c *Compiled) classify(tu *data.Tuple, out []float64, s *scratch, w0 float64) {
	nc := len(c.Classes)
	s.reset()
	s.frames = append(s.frames, cframe{node: c.root, head: -1, w: w0})
	for len(s.frames) > 0 {
		f := s.frames[len(s.frames)-1]
		s.frames = s.frames[:len(s.frames)-1]
		if f.w <= weightEps {
			continue
		}
		node := int(f.node)
		switch c.kind[node] {
		case ckLeaf:
			// Reslicing out to the row length lets the compiler drop the
			// bounds check inside the accumulation loop; the summation
			// order is unchanged.
			row := c.dist[node*nc : node*nc+nc]
			acc := out[:len(row)]
			for ci, p := range row {
				acc[ci] += f.w * p
			}
		case ckCat:
			a := c.attr[node]
			lo := int(c.start[node])
			if o := s.find(f.head, ^a); o >= 0 {
				// Collapsed by an earlier test: the one value carries
				// all the mass, and f.w * 1 == f.w.
				s.frames = append(s.frames, cframe{node: c.child[lo+int(s.ovr[o].lo)], head: f.head, w: f.w})
				continue
			}
			d := tu.Cat[a]
			if d == nil {
				c.routeMissing(f, out, s, nc)
				continue
			}
			for v := len(d) - 1; v >= 0; v-- {
				p := d[v]
				if p <= 0 {
					continue
				}
				s.frames = append(s.frames, cframe{
					node: c.child[lo+v],
					head: s.push(override{prev: f.head, key: ^a, lo: int32(v)}),
					w:    f.w * p,
				})
			}
		case ckNum:
			a := c.attr[node]
			p := tu.Num[a]
			if p == nil {
				c.routeMissing(f, out, s, nc)
				continue
			}
			lo, hi := 0, p.NumSamples()
			var chain []pdf.Step
			if o := s.find(f.head, a); o >= 0 {
				e := s.ovr[o]
				lo, hi, chain = int(e.lo), int(e.hi), s.steps[e.cs:e.ce]
			}
			k, pL, ls, rs := p.Cut(lo, hi, chain, c.split[node])
			left, right := f.head, f.head
			if pL > 0 && pL < 1 {
				left = s.piece(f.head, a, lo, k, chain, ls)
				right = s.piece(f.head, a, k, hi, chain, rs)
			}
			kid := int(c.start[node])
			if pL < 1 {
				s.frames = append(s.frames, cframe{node: c.child[kid+1], head: right, w: f.w * (1 - pL)})
			}
			if pL > 0 {
				s.frames = append(s.frames, cframe{node: c.child[kid], head: left, w: f.w * pL})
			}
		}
	}
}

// routeMissing handles a test on an attribute the tuple is missing: the
// arriving mass is distributed across the children in proportion to the
// training weight each received, falling back to the node's own class
// weights when no child carries weight — the compiled twin of
// classifyByTrainingWeights.
//
//udt:hotpath
func (c *Compiled) routeMissing(f cframe, out []float64, s *scratch, nc int) {
	node := int(f.node)
	lo, hi := int(c.start[node]), int(c.start[node+1])
	total := 0.0
	for i := lo; i < hi; i++ {
		total += c.w[c.child[i]]
	}
	if total <= 0 {
		if nodeW := c.w[node]; nodeW > 0 {
			row := c.dist[node*nc : (node+1)*nc]
			for ci, cw := range row {
				out[ci] += f.w * cw / nodeW
			}
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		kid := c.child[i]
		s.frames = append(s.frames, cframe{node: kid, head: f.head, w: f.w * c.w[kid] / total})
	}
}

// Classify returns the probability distribution over class labels for the
// tuple, identical to Tree.Classify on the source tree.
func (c *Compiled) Classify(tu *data.Tuple) []float64 {
	out := make([]float64, len(c.Classes))
	s := scratchPool.Get().(*scratch)
	c.classify(tu, out, s, 1)
	scratchPool.Put(s)
	return out
}

// ClassifyInto accumulates the tuple's class distribution into out, which
// must have len(c.Classes) entries and is NOT zeroed first. A warm call
// allocates nothing, which lets an ensemble of trees sum their
// distributions into one shared buffer on the serving path.
func (c *Compiled) ClassifyInto(tu *data.Tuple, out []float64) {
	c.ClassifyIntoWeighted(tu, out, 1)
}

// ClassifyIntoWeighted accumulates scale times the tuple's class
// distribution into out (NOT zeroed first). The scale seeds the root weight
// of the descent, so a weighted ensemble member contributes its vote weight
// with no extra pass over the distribution — the accumulation primitive of
// boosted ensembles, exactly ClassifyInto when scale is 1.
func (c *Compiled) ClassifyIntoWeighted(tu *data.Tuple, out []float64, scale float64) {
	s := scratchPool.Get().(*scratch)
	c.classify(tu, out, s, scale)
	scratchPool.Put(s)
}

// Predict returns the most probable class label index for the tuple, with
// Tree.Predict's tie-breaking (lowest index wins).
func (c *Compiled) Predict(tu *data.Tuple) int {
	s := scratchPool.Get().(*scratch)
	out := s.outBuf(len(c.Classes))
	c.classify(tu, out, s, 1)
	best := argmax(out)
	scratchPool.Put(s)
	return best
}

// argmax selects the predicted class with par.Argmax's tie-breaking (lowest
// index wins).
func argmax(dist []float64) int { return par.Argmax(dist) }

// ClassifyBatch classifies every tuple and returns one distribution per
// tuple, computed by up to workers concurrent goroutines (workers <= 1 means
// serial). Results are positionally identical to calling Classify per tuple.
func (c *Compiled) ClassifyBatch(tuples []*data.Tuple, workers int) [][]float64 {
	out := make([][]float64, len(tuples))
	c.forEach(tuples, workers, func(i int, s *scratch) {
		d := make([]float64, len(c.Classes))
		c.classify(tuples[i], d, s, 1)
		out[i] = d
	})
	return out
}

// PredictBatch returns the most probable class label index per tuple,
// computed by up to workers concurrent goroutines (workers <= 1 means
// serial).
func (c *Compiled) PredictBatch(tuples []*data.Tuple, workers int) []int {
	out := make([]int, len(tuples))
	c.forEach(tuples, workers, func(i int, s *scratch) {
		buf := s.outBuf(len(c.Classes))
		c.classify(tuples[i], buf, s, 1)
		out[i] = argmax(buf)
	})
	return out
}

// forEach applies fn to every tuple index, each worker carrying its own
// pooled scratch, claiming par.BatchGrain-sized blocks off an atomic cursor.
func (c *Compiled) forEach(tuples []*data.Tuple, workers int, fn func(i int, s *scratch)) {
	par.ForEach(len(tuples), workers,
		func() *scratch { return scratchPool.Get().(*scratch) },
		fn,
		func(s *scratch) { scratchPool.Put(s) })
}
