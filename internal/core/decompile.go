package core

import "fmt"

// Decompile reconstructs a pointer-linked Tree from the arena. It is the
// inverse of Tree.Compile up to the information the arena keeps:
// node structure, splits, leaf distributions, and per-node training weights
// survive; build configuration and split-search counters do not. Its purpose
// is interchange — a binary-loaded model has no source Tree, and converting
// it back to the JSON container (or printing its rules) needs one.
//
// Each call allocates a fresh tree; subtrees the arena hash-consed are
// expanded back into distinct nodes, so the result is always a plain tree.
func (c *Compiled) Decompile() (*Tree, error) {
	nc := len(c.Classes)
	root, err := c.decompileNode(c.root, nc, 0)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		Root:     root,
		Classes:  c.Classes,
		NumAttrs: c.NumAttrs,
		CatAttrs: c.CatAttrs,
	}
	t.Stats.Nodes, t.Stats.Leaves, t.Stats.Depth = countNodes(root)
	return t, nil
}

// decompileNode rebuilds the subtree rooted at the given arena index. The
// depth guard is defense in depth: binfmt-validated arenas satisfy
// child < parent, which bounds any path by the arena size, but Decompile
// must terminate on any engine it is handed.
func (c *Compiled) decompileNode(node int32, nc, depth int) (*Node, error) {
	if node < 0 || int(node) >= c.a.Len() {
		return nil, fmt.Errorf("core: decompile: node %d out of range [0,%d)", node, c.a.Len())
	}
	if depth > c.a.Len() {
		return nil, fmt.Errorf("core: decompile: descent exceeded %d nodes, graph has a cycle", c.a.Len())
	}
	i := int(node)
	row := c.a.Dist[i*nc : (i+1)*nc]
	n := &Node{W: c.a.W[i]}
	switch c.a.Kind[i] {
	case KindLeaf:
		n.Dist = append([]float64(nil), row...)
	case KindNum:
		lo, hi := int(c.a.Start[i]), int(c.a.Start[i+1])
		if hi-lo != 2 {
			return nil, fmt.Errorf("core: decompile: numeric node %d has %d children, want 2", node, hi-lo)
		}
		n.Attr = int(c.a.Attr[i])
		n.Split = c.a.Split[i]
		n.ClassW = append([]float64(nil), row...)
		var err error
		if n.Left, err = c.decompileNode(c.a.Child[lo], nc, depth+1); err != nil {
			return nil, err
		}
		if n.Right, err = c.decompileNode(c.a.Child[lo+1], nc, depth+1); err != nil {
			return nil, err
		}
	case KindCat:
		lo, hi := int(c.a.Start[i]), int(c.a.Start[i+1])
		n.Cat = true
		n.Attr = int(c.a.Attr[i])
		n.ClassW = append([]float64(nil), row...)
		n.Kids = make([]*Node, 0, hi-lo)
		for j := lo; j < hi; j++ {
			kid, err := c.decompileNode(c.a.Child[j], nc, depth+1)
			if err != nil {
				return nil, err
			}
			n.Kids = append(n.Kids, kid)
		}
	default:
		return nil, fmt.Errorf("core: decompile: node %d has unknown kind %d", node, c.a.Kind[i])
	}
	return n, nil
}
