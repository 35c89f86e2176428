package core

import (
	"errors"
	"sync"

	"udt/internal/data"
	"udt/internal/par"
	"udt/internal/pdf"
)

// This file implements the compiled inference engine: a tree of an Arena,
// classified by an iterative descent that performs no steady-state heap
// allocation. The recursive Classify of classify.go remains the semantic
// reference; TestCompiledMatchesRecursive pins the two paths to each other
// over randomized trees and tuples.

// Compiled is one decision tree of an Arena, ready for fast inference: the
// nodes reachable from its root, which it shares with every other tree
// compiled over the same arena (the members of an ensemble, hash-consed into
// one arena, share their common subtrees). Tree.Compile interns one tree
// into an arena of its own; internal/forest compiles all members of a model
// into one, and internal/binfmt maps a container's arena from disk.
//
// A Compiled is immutable after construction and safe for concurrent use.
type Compiled struct {
	Classes  []string
	NumAttrs []data.Attribute
	CatAttrs []data.Attribute

	a     Arena     // node arrays, shared with the other trees of the arena
	ub    []float64 // per-class emission upper bound; see ClassUpperBounds
	root  int32     // descent entry point
	nodes int       // logical nodes of the tree; see NumNodes
	reach int       // distinct arena nodes reachable from root; see Reach
}

// Compile interns the pointer-linked tree into an arena of its own and
// returns its engine, validating the structural invariants (leaf
// distribution arity, both children present on numeric tests, children
// matching the categorical domain) that the recursive path would only
// surface as panics mid-descent.
func (t *Tree) Compile() (*Compiled, error) {
	if t == nil || t.Root == nil {
		return nil, errors.New("core: cannot compile a tree without a root")
	}
	if len(t.Classes) == 0 {
		return nil, errors.New("core: cannot compile a tree without classes")
	}
	in := NewInterner(len(t.Classes))
	root, err := in.Add(t, 0)
	if err != nil {
		return nil, err
	}
	c := in.Arena().Compile(t.Classes, []int32{root})[0]
	c.NumAttrs, c.CatAttrs = t.NumAttrs, t.CatAttrs
	return c, nil
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

// NumNodes reports the number of nodes of the tree, counting a subtree
// that hash-consing stores once at every position it fills: the tree's
// Stats.Nodes.
func (c *Compiled) NumNodes() int { return c.nodes }

// Reach reports the number of distinct arena nodes reachable from the root:
// NumNodes less the repeats that hash-consing merged.
func (c *Compiled) Reach() int { return c.reach }

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
		switch c.a.Kind[node] {
		case KindLeaf:
			// Reslicing out to the row length lets the compiler drop the
			// bounds check inside the accumulation loop; the summation
			// order is unchanged.
			row := c.a.Dist[node*nc : node*nc+nc]
			acc := out[:len(row)]
			for ci, p := range row {
				acc[ci] += f.w * p
			}
		case KindCat:
			a := c.a.Attr[node]
			lo := int(c.a.Start[node])
			if o := s.find(f.head, ^a); o >= 0 {
				// Collapsed by an earlier test: the one value carries
				// all the mass, and f.w * 1 == f.w.
				s.frames = append(s.frames, cframe{node: c.a.Child[lo+int(s.ovr[o].lo)], head: f.head, w: f.w})
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
					node: c.a.Child[lo+v],
					head: s.push(override{prev: f.head, key: ^a, lo: int32(v)}),
					w:    f.w * p,
				})
			}
		case KindNum:
			a := c.a.Attr[node]
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
			k, pL, ls, rs := p.Cut(lo, hi, chain, c.a.Split[node])
			left, right := f.head, f.head
			if pL > 0 && pL < 1 {
				left = s.piece(f.head, a, lo, k, chain, ls)
				right = s.piece(f.head, a, k, hi, chain, rs)
			}
			kid := int(c.a.Start[node])
			if pL < 1 {
				s.frames = append(s.frames, cframe{node: c.a.Child[kid+1], head: right, w: f.w * (1 - pL)})
			}
			if pL > 0 {
				s.frames = append(s.frames, cframe{node: c.a.Child[kid], head: left, w: f.w * pL})
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
	lo, hi := int(c.a.Start[node]), int(c.a.Start[node+1])
	total := 0.0
	for i := lo; i < hi; i++ {
		total += c.a.W[c.a.Child[i]]
	}
	if total <= 0 {
		if nodeW := c.a.W[node]; nodeW > 0 {
			row := c.a.Dist[node*nc : (node+1)*nc]
			for ci, cw := range row {
				out[ci] += f.w * cw / nodeW
			}
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		kid := c.a.Child[i]
		s.frames = append(s.frames, cframe{node: kid, head: f.head, w: f.w * c.a.W[kid] / total})
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
