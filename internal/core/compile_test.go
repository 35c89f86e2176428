package core

import (
	"math"
	"math/rand"
	"testing"

	"udt/internal/data"
	"udt/internal/pdf"
)

// randomMixedDataset builds a dataset with k numeric pdf attributes, one
// 4-value categorical attribute, and (when punch is true) missing values in
// both — the full attribute surface of the classifier.
func randomMixedDataset(rng *rand.Rand, m, k, classes, s int, punch bool) *data.Dataset {
	ds := buildRandomDataset(rng, m, k, classes, s)
	ds.CatAttrs = []data.Attribute{{Name: "region", Kind: data.Categorical, Domain: []string{"n", "s", "e", "w"}}}
	for _, tu := range ds.Tuples {
		d := make(data.CatDist, 4)
		d[(tu.Class+rng.Intn(2))%4] = 0.6 + rng.Float64()*0.4
		d[rng.Intn(4)] += 0.4
		if err := d.Normalize(); err != nil {
			panic(err)
		}
		tu.Cat = []data.CatDist{d}
		if punch {
			if rng.Float64() < 0.15 {
				tu.Num[rng.Intn(k)] = nil
			}
			if rng.Float64() < 0.15 {
				tu.Cat[0] = nil
			}
		}
	}
	return ds
}

// randomProbes derives fresh test tuples the tree has never seen: widened,
// shifted, partially missing variants of the training tuples.
func randomProbes(rng *rand.Rand, ds *data.Dataset, n int) []*data.Tuple {
	probes := make([]*data.Tuple, 0, n)
	for i := 0; i < n; i++ {
		src := ds.Tuples[rng.Intn(len(ds.Tuples))]
		tu := src.CloneShallow()
		for j, p := range tu.Num {
			switch {
			case p == nil:
			case rng.Float64() < 0.2:
				tu.Num[j] = nil
			case rng.Float64() < 0.5:
				q, err := pdf.Uniform(p.Min()-rng.Float64()*2, p.Max()+rng.Float64()*2, 1+rng.Intn(20))
				if err != nil {
					panic(err)
				}
				tu.Num[j] = q
			default:
				tu.Num[j] = p.Shift(rng.NormFloat64())
			}
		}
		for j, d := range tu.Cat {
			switch {
			case d == nil:
			case rng.Float64() < 0.2:
				tu.Cat[j] = nil
			default:
				nd := make(data.CatDist, len(d))
				for v := range nd {
					nd[v] = rng.Float64()
				}
				if err := nd.Normalize(); err != nil {
					panic(err)
				}
				tu.Cat[j] = nd
			}
		}
		probes = append(probes, tu)
	}
	return probes
}

// TestCompiledMatchesRecursive is the equality oracle of the compiled
// engine: over randomized trees (numeric and categorical splits, post-
// pruning on and off) and randomized tuples (fresh pdfs, collapsed cat
// distributions, missing values), the flat iterative descent must reproduce
// the recursive Classify and Predict exactly.
func TestCompiledMatchesRecursive(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomMixedDataset(rng, 150, 3, 3, 10, seed%2 == 0)
		cfg := Config{MinWeight: 1, PostPrune: seed%3 == 0}
		tree, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := tree.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if c.NumNodes() != tree.Stats.Nodes {
			t.Fatalf("seed %d: compiled %d nodes, tree has %d", seed, c.NumNodes(), tree.Stats.Nodes)
		}
		probes := append(append([]*data.Tuple{}, ds.Tuples...), randomProbes(rng, ds, 200)...)
		for i, tu := range probes {
			want := tree.Classify(tu)
			got := c.Classify(tu)
			if !sameBits(got, want) {
				t.Fatalf("seed %d probe %d: compiled dist %v, recursive %v", seed, i, got, want)
			}
			if wp, gp := tree.Predict(tu), c.Predict(tu); wp != gp {
				t.Fatalf("seed %d probe %d: compiled predicts %d, recursive %d", seed, i, gp, wp)
			}
		}
	}
}

// TestCompiledBatchMatchesSerial: the batch APIs must return positionally
// identical results for any worker count, including workers exceeding the
// batch size.
func TestCompiledBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := randomMixedDataset(rng, 200, 3, 4, 8, true)
	tree, err := Build(ds, Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	probes := randomProbes(rng, ds, 500)
	wantDist := c.ClassifyBatch(probes, 1)
	wantPred := c.PredictBatch(probes, 1)
	for _, workers := range []int{2, 4, 1000} {
		gotDist := c.ClassifyBatch(probes, workers)
		gotPred := c.PredictBatch(probes, workers)
		for i := range probes {
			for ci := range wantDist[i] {
				if wantDist[i][ci] != gotDist[i][ci] {
					t.Fatalf("workers=%d tuple %d: dist %v vs serial %v", workers, i, gotDist[i], wantDist[i])
				}
			}
			if wantPred[i] != gotPred[i] {
				t.Fatalf("workers=%d tuple %d: pred %d vs serial %d", workers, i, gotPred[i], wantPred[i])
			}
		}
	}
}

// TestCompiledScratchReuse classifies many tuples through the same pooled
// scratch path; slab recycling across calls must not leak state between
// classifications.
func TestCompiledScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randomMixedDataset(rng, 100, 2, 3, 12, true)
	tree, err := Build(ds, Config{MinWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tu := ds.Tuples[0]
	first := c.Classify(tu)
	for i := 0; i < 100; i++ {
		c.Classify(ds.Tuples[i%ds.Len()])
	}
	again := c.Classify(tu)
	for ci := range first {
		if first[ci] != again[ci] {
			t.Fatalf("classification drifted across scratch reuse: %v vs %v", again, first)
		}
	}
}

// TestCompileErrors: malformed trees must fail compilation with a clear
// error instead of panicking mid-descent.
func TestCompileErrors(t *testing.T) {
	var nilTree *Tree
	if _, err := nilTree.Compile(); err == nil {
		t.Error("nil tree compiled")
	}
	if _, err := (&Tree{Classes: []string{"a"}}).Compile(); err == nil {
		t.Error("rootless tree compiled")
	}
	if _, err := (&Tree{Root: &Node{Dist: []float64{1}}}).Compile(); err == nil {
		t.Error("classless tree compiled")
	}
	leaf := func() *Node { return &Node{Dist: []float64{0.5, 0.5}} }
	cases := map[string]*Tree{
		"leaf arity": {
			Classes: []string{"a", "b"},
			Root:    &Node{Dist: []float64{1}},
		},
		"numeric missing child": {
			Classes:  []string{"a", "b"},
			NumAttrs: []data.Attribute{{Name: "x"}},
			Root:     &Node{Attr: 0, Split: 1, Left: leaf()},
		},
		"numeric attr out of range": {
			Classes: []string{"a", "b"},
			Root:    &Node{Attr: 0, Split: 1, Left: leaf(), Right: leaf()},
		},
		"categorical attr out of range": {
			Classes: []string{"a", "b"},
			Root:    &Node{Cat: true, Attr: 2, Kids: []*Node{leaf(), leaf()}},
		},
		"categorical domain mismatch": {
			Classes:  []string{"a", "b"},
			CatAttrs: []data.Attribute{{Name: "c", Kind: data.Categorical, Domain: []string{"x", "y", "z"}}},
			Root:     &Node{Cat: true, Attr: 0, Kids: []*Node{leaf(), leaf()}},
		},
		"categorical nil child": {
			Classes:  []string{"a", "b"},
			CatAttrs: []data.Attribute{{Name: "c", Kind: data.Categorical, Domain: []string{"x", "y"}}},
			Root:     &Node{Cat: true, Attr: 0, Kids: []*Node{leaf(), nil}},
		},
		"malformed deep node": {
			Classes:  []string{"a", "b"},
			NumAttrs: []data.Attribute{{Name: "x"}},
			Root:     &Node{Attr: 0, Split: 1, Left: leaf(), Right: &Node{Attr: 0, Split: 2, Left: leaf()}},
		},
	}
	for name, tree := range cases {
		if _, err := tree.Compile(); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
}

// TestCompiledMissingFallback covers the no-information branch: a tuple
// missing the tested attribute at a node whose children carry no training
// weight falls back to the node's own class-weight distribution.
func TestCompiledMissingFallback(t *testing.T) {
	zero := &Node{Dist: []float64{0.5, 0.5}, W: 0, ClassW: []float64{0, 0}}
	tree := &Tree{
		Classes:  []string{"a", "b"},
		NumAttrs: []data.Attribute{{Name: "x"}},
		Root: &Node{
			Attr: 0, Split: 1,
			Left: zero, Right: &Node{Dist: []float64{0.5, 0.5}, W: 0, ClassW: []float64{0, 0}},
			W: 10, ClassW: []float64{7, 3},
		},
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tu := &data.Tuple{Num: []*pdf.PDF{nil}, Weight: 1}
	want := tree.Classify(tu)
	got := c.Classify(tu)
	for ci := range want {
		if math.Abs(want[ci]-got[ci]) > 1e-15 {
			t.Fatalf("fallback dist %v, recursive %v", got, want)
		}
	}
	if got[0] != 0.7 || got[1] != 0.3 {
		t.Fatalf("fallback should be the node class weights: %v", got)
	}
}

// sameBits reports whether two distributions agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireCompiledMatches classifies every probe both ways and requires the
// compiled distribution and prediction to equal the recursive ones bit for
// bit.
func requireCompiledMatches(t testing.TB, tree *Tree, probes []*data.Tuple) {
	t.Helper()
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range probes {
		if want, got := tree.Classify(tu), c.Classify(tu); !sameBits(got, want) {
			t.Fatalf("probe %d: compiled dist %v, recursive %v", i, got, want)
		}
		if want, got := tree.Predict(tu), c.Predict(tu); got != want {
			t.Fatalf("probe %d: compiled predicts %d, recursive %d", i, got, want)
		}
	}
}

// bisectionTree tests numeric attribute 0 at every level: the node for
// [a, b) splits at its midpoint, so a pdf across [0, 1] straddles every
// node of the path it takes, and each path cuts left and right pieces of
// the same pdf depth times. Every third level wraps the two halves in a
// test on numeric attribute 1; at level catAt the subtree is a test on
// categorical attribute 0 (domain 3) whose first child tests it again.
func bisectionTree(rng *rand.Rand, a, b float64, depth, catAt int) *Node {
	classW := func() []float64 { return []float64{rng.Float64(), rng.Float64()} }
	if depth == 0 {
		p := rng.Float64()
		return &Node{Dist: []float64{p, 1 - p}, W: rng.Float64(), ClassW: classW()}
	}
	if depth == catAt {
		again := &Node{Cat: true, Attr: 0, W: rng.Float64(), ClassW: classW(), Kids: []*Node{
			bisectionTree(rng, a, b, depth-1, -1), bisectionTree(rng, a, b, depth-1, -1), bisectionTree(rng, a, b, depth-1, -1),
		}}
		return &Node{Cat: true, Attr: 0, W: rng.Float64(), ClassW: classW(), Kids: []*Node{
			again, bisectionTree(rng, a, b, depth-1, -1), bisectionTree(rng, a, b, depth-1, -1),
		}}
	}
	mid := (a + b) / 2
	n := &Node{Attr: 0, Split: mid, W: rng.Float64(), ClassW: classW(),
		Left: bisectionTree(rng, a, mid, depth-1, catAt), Right: bisectionTree(rng, mid, b, depth-1, catAt)}
	if depth%3 == 0 {
		n = &Node{Attr: 1, Split: rng.Float64(), W: rng.Float64(), ClassW: classW(),
			Left: n, Right: &Node{Attr: 0, Split: mid, W: rng.Float64(), ClassW: classW(),
				Left: bisectionTree(rng, a, mid, depth-1, -1), Right: bisectionTree(rng, mid, b, depth-1, -1)}}
	}
	return n
}

// edgeProbePDF draws a pdf over about [0, 1] for the bisection tree: a
// single sample, an evenly spaced uniform one, or irregular samples whose
// masses span twelve orders of magnitude, so that renormalised pieces land
// within 1e-12 of 0 or 1 at some cuts.
func edgeProbePDF(rng *rand.Rand) *pdf.PDF {
	switch rng.Intn(6) {
	case 0:
		return pdf.Point(rng.Float64())
	case 1:
		p, err := pdf.Uniform(-0.05, 1.05, 1+rng.Intn(2000))
		if err != nil {
			panic(err)
		}
		return p
	}
	s := 2 + rng.Intn(60)
	xs := make([]float64, s)
	ms := make([]float64, s)
	for i := range xs {
		xs[i] = rng.Float64()*1.1 - 0.05
		ms[i] = 1
		if rng.Intn(3) == 0 {
			ms[i] = math.Pow(10, -float64(rng.Intn(14))) * (0.5 + rng.Float64())
		}
	}
	ms[0] = 1
	return pdf.MustNew(xs, ms)
}

// edgeCuts walks the tree as Tree.Classify does and counts the numeric
// tests whose piece carries a mass within 1e-11 of 0 or 1 left of the
// split, where SplitAt's massEps clamps decide whether it straddles.
func edgeCuts(n *Node, tu *data.Tuple) int {
	switch {
	case n.IsLeaf():
		return 0
	case n.Cat:
		count := 0
		for _, kid := range n.Kids {
			count += edgeCuts(kid, tu)
		}
		return count
	}
	p := tu.Num[n.Attr]
	if p == nil {
		return edgeCuts(n.Left, tu) + edgeCuts(n.Right, tu)
	}
	count := 0
	if raw := p.CDF(n.Split); raw > 0 && raw < 1 && (raw < 1e-11 || raw > 1-1e-11) {
		count++
	}
	l, r, _ := p.SplitAt(n.Split)
	for _, piece := range []struct {
		kid *Node
		p   *pdf.PDF
	}{{n.Left, l}, {n.Right, r}} {
		if piece.p != nil {
			ty := tu.CloneShallow()
			ty.Num[n.Attr] = piece.p
			count += edgeCuts(piece.kid, ty)
		}
	}
	return count
}

// TestCompiledDeepSameAttribute drives long renormalisation chains: one
// attribute tested nine or ten times along every path, with left and right
// straddles, a categorical attribute collapsed and then tested again, and
// probes with single-sample pdfs, near-clamp masses and missing values.
// Compiled and recursive results must agree bit for bit.
func TestCompiledDeepSameAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tree := &Tree{
		Classes:  []string{"a", "b"},
		NumAttrs: []data.Attribute{{Name: "x"}, {Name: "y"}},
		CatAttrs: []data.Attribute{{Name: "c", Kind: data.Categorical, Domain: []string{"p", "q", "r"}}},
		Root:     bisectionTree(rng, 0, 1, 10, 6),
	}
	var probes []*data.Tuple
	edges := 0
	for i := 0; i < 300; i++ {
		tu := &data.Tuple{Num: []*pdf.PDF{edgeProbePDF(rng), edgeProbePDF(rng)}, Cat: []data.CatDist{{0.5, 0.3, 0.2}}, Weight: 1}
		switch i % 10 {
		case 7:
			tu.Num[0] = nil
		case 8:
			tu.Num[1] = nil
		case 9:
			tu.Cat[0] = nil
		}
		edges += edgeCuts(tree.Root, tu)
		probes = append(probes, tu)
	}
	if edges < 50 {
		t.Fatalf("only %d cuts near a massEps clamp; the probes miss the edge they exist for", edges)
	}
	requireCompiledMatches(t, tree, probes)
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes struct {
	b []byte
	i int
}

func (r *fuzzBytes) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// grid maps a byte onto [-2, 2) in steps of 1/64, so split points and
// sample locations collide often.
func (r *fuzzBytes) grid() float64 { return float64(r.next()-128) / 64 }

// fuzzNode builds a node from the input: a leaf once the input, the depth
// budget or the node budget runs out, else a numeric test (on attribute 0
// three times in four, to build long chains) or a categorical one.
func fuzzNode(r *fuzzBytes, depth int, nodes *int) *Node {
	*nodes++
	n := &Node{W: float64(r.next() % 4), ClassW: []float64{float64(r.next()), float64(r.next())}}
	op := r.next()
	if op%4 == 0 || depth >= 14 || *nodes > 80 {
		n.Dist = []float64{float64(r.next()) / 255, float64(r.next()) / 255}
		return n
	}
	if op%4 == 3 {
		n.Cat = true
		n.Kids = []*Node{fuzzNode(r, depth+1, nodes), fuzzNode(r, depth+1, nodes), fuzzNode(r, depth+1, nodes)}
		return n
	}
	if op&0xc0 == 0 {
		n.Attr = 1
	}
	n.Split = r.grid()
	n.Left = fuzzNode(r, depth+1, nodes)
	n.Right = fuzzNode(r, depth+1, nodes)
	return n
}

// fuzzPDF builds a pdf of up to 16 samples on the grid; a low mass byte
// becomes a power of two down to 2^-51, well below massEps.
func fuzzPDF(r *fuzzBytes) *pdf.PDF {
	s := 1 + r.next()%16
	xs := make([]float64, s)
	ms := make([]float64, s)
	for i := range xs {
		xs[i] = r.grid()
		if m := r.next(); m < 32 {
			ms[i] = math.Ldexp(1, -20-m)
		} else {
			ms[i] = float64(m)
		}
	}
	p, err := pdf.New(xs, ms)
	if err != nil {
		return pdf.Point(xs[0])
	}
	return p
}

// chainSeed encodes a tree that tests attribute 0 at 14 successive depths
// and a 16-sample pdf for it. Each test peels one sample off the current
// piece, alternately off its left end (the path goes on right) and its
// right end (the path goes on left), so the one path that reaches depth 14
// carries a renormalisation chain 14 steps long with both kinds of step.
func chainSeed() []byte {
	leaf := func(depth int) []byte { return []byte{1, 1, 1, 0, byte(17 * depth), byte(250 - 9*depth)} }
	var enc func(a, b, depth int) []byte
	enc = func(a, b, depth int) []byte {
		if depth == 14 {
			return leaf(depth)
		}
		if depth%2 == 0 { // split between samples a and a+1; go right
			node := []byte{1, 1, 1, 0x41, byte(8*a + 68)}
			return append(append(node, leaf(depth)...), enc(a+1, b, depth+1)...)
		}
		node := []byte{1, 1, 1, 0x41, byte(8*b + 60)} // between b-1 and b; go left
		return append(append(node, enc(a, b-1, depth+1)...), leaf(depth)...)
	}
	seed := append(enc(0, 15, 0), 1, 15)
	for i := 0; i < 16; i++ {
		seed = append(seed, byte(8*i+64), byte(37+13*i))
	}
	return append(seed, 0, 1, 2, 3) // attribute 1 missing; a categorical dist
}

// FuzzCompiledMatchesRecursive builds a small tree over two numeric
// attributes and one categorical attribute, and a tuple, from the input;
// the compiled descent must reproduce Tree.Classify and Tree.Predict bit
// for bit.
func FuzzCompiledMatchesRecursive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 1, 130, 1, 2, 3, 1, 120, 0, 0, 0, 0, 200, 100, 0, 0, 0, 0, 50, 9, 7, 126, 40, 129, 3, 131, 200, 5, 0})
	seed := make([]byte, 400)
	rng := rand.New(rand.NewSource(1))
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	f.Add(seed)
	f.Add(chainSeed())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := &fuzzBytes{b: b}
		nodes := 0
		tree := &Tree{
			Classes:  []string{"a", "b"},
			NumAttrs: []data.Attribute{{Name: "x"}, {Name: "y"}},
			CatAttrs: []data.Attribute{{Name: "c", Kind: data.Categorical, Domain: []string{"p", "q", "r"}}},
			Root:     fuzzNode(r, 0, &nodes),
		}
		tu := &data.Tuple{Num: make([]*pdf.PDF, 2), Cat: make([]data.CatDist, 1), Weight: 1}
		for j := range tu.Num {
			if r.next()%5 != 0 {
				tu.Num[j] = fuzzPDF(r)
			}
		}
		if d := (data.CatDist{float64(r.next()), float64(r.next()), float64(r.next())}); d.Normalize() == nil {
			tu.Cat[0] = d
		}
		requireCompiledMatches(t, tree, []*data.Tuple{tu})
	})
}
