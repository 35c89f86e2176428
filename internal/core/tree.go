// Package core implements the paper's primary contribution: construction of
// decision trees over uncertain data (UDT, §4.2) in the C4.5 framework,
// alongside the Averaging baseline (AVG, §4.1), with fractional-tuple
// partitioning, pre- and post-pruning, categorical multiway splits (§7.2),
// and the recursive distribution-producing classification of §3.2.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"udt/internal/data"
	"udt/internal/obs"
	"udt/internal/split"
)

// Config controls tree construction.
type Config struct {
	Measure      split.Measure      // dispersion measure (default entropy)
	Strategy     split.Strategy     // split search strategy (default exhaustive UDT)
	EndPointFrac float64            // UDT-ES end-point sample fraction (default 10%)
	EndPoints    split.EndPointMode // interval end-point derivation (§7.3)
	Percentiles  int                // per-class percentiles for PercentileEnds (default 9)
	MaxDepth     int                // maximum tree depth; 0 means unlimited
	Parallelism  int                // concurrent subtree builds; <= 1 means serial
	Workers      int                // concurrent split-search workers within one node; <= 1 means serial. Up to Parallelism*Workers goroutines run during a build.
	MinWeight    float64            // pre-pruning: do not split nodes lighter than this (default 4)
	MinGain      float64            // pre-pruning: required dispersion gain (default 1e-9)
	PostPrune    bool               // pessimistic error post-pruning (C4.5 style)
	CF           float64            // post-pruning confidence factor (default 0.25)

	// Progress, when non-nil, observes construction (per-node split-search
	// timing). Purely observational: it never changes the built tree, and it
	// is excluded from model serialisation.
	Progress *obs.ProgressHook `json:"-"`
}

// withDefaults fills zero values with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.MinWeight <= 0 {
		c.MinWeight = 4
	}
	if c.MinGain <= 0 {
		c.MinGain = 1e-9
	}
	if c.CF <= 0 || c.CF >= 1 {
		c.CF = 0.25
	}
	return c
}

// Node is one decision tree node. Exactly one of the following holds:
// leaf (Dist != nil), numeric test (Left and Right != nil, test
// "value <= Split"), or categorical test (Kids != nil, one child per
// domain value).
type Node struct {
	// Numeric internal node: test Num[Attr] <= Split.
	Attr  int
	Split float64
	Left  *Node
	Right *Node

	// Categorical internal node: follow Kids[value of Cat[Attr]].
	Cat  bool
	Kids []*Node

	// Leaf: probability distribution over classes.
	Dist []float64

	// Diagnostics: training weight and per-class training weight that
	// reached the node; used by post-pruning and rule support reporting.
	W      float64
	ClassW []float64
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Dist != nil }

// Tree is a built classifier.
type Tree struct {
	Root     *Node
	Classes  []string
	NumAttrs []data.Attribute
	CatAttrs []data.Attribute
	Config   Config
	Stats    BuildStats
}

// BuildStats summarises construction work.
type BuildStats struct {
	Search split.Stats // split-search counters (entropy calculations etc.)
	Nodes  int
	Leaves int
	Depth  int
	Pruned int // subtrees collapsed by post-pruning
}

// Build constructs a Distribution-based decision tree (UDT) from the
// uncertain dataset, using the full pdfs of the tuples.
func Build(ds *data.Dataset, cfg Config) (*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, errors.New("core: cannot build a tree from an empty dataset")
	}
	cfg = cfg.withDefaults()
	b := &builder{
		cfg:     cfg,
		classes: len(ds.Classes),
		numAttr: len(ds.NumAttrs),
		catAttr: ds.CatAttrs,
	}
	if cfg.Parallelism > 1 {
		b.sem = make(chan struct{}, cfg.Parallelism-1)
	}
	tuples := make([]*data.Tuple, len(ds.Tuples))
	copy(tuples, ds.Tuples)
	root := b.build(tuples, 0, make([]bool, len(ds.CatAttrs)))
	t := &Tree{
		Root:     root,
		Classes:  ds.Classes,
		NumAttrs: ds.NumAttrs,
		CatAttrs: ds.CatAttrs,
		Config:   cfg,
	}
	if cfg.PostPrune {
		t.Stats.Pruned = prune(root, cfg.CF)
	}
	t.Stats.Search = b.stats
	t.Stats.Nodes, t.Stats.Leaves, t.Stats.Depth = countNodes(root)
	return t, nil
}

// BuildAveraging constructs an AVG tree: every pdf is first collapsed to
// its mean value (§4.1) and a conventional tree is built on the points.
func BuildAveraging(ds *data.Dataset, cfg Config) (*Tree, error) {
	return Build(ds.Means(), cfg)
}

type builder struct {
	cfg     Config
	classes int
	numAttr int
	catAttr []data.Attribute

	sem chan struct{} // parallelism tokens; nil when building serially

	mu    sync.Mutex
	stats split.Stats
}

// finders pools split finders across builds. A finder keeps the buffers it
// indexes attribute views in, sized for the largest node it has searched,
// so a build that takes pooled finders allocates no index of its own.
// Finders carry per-goroutine scratch space, so each concurrent subtree
// build takes its own.
var finders = sync.Pool{New: func() any { return new(split.Finder) }}

// getFinder takes a finder from the pool, aimed at the build's search
// configuration with its counters zeroed.
func (b *builder) getFinder() *split.Finder {
	f := finders.Get().(*split.Finder)
	f.Reset(split.Config{
		Measure:      b.cfg.Measure,
		Strategy:     b.cfg.Strategy,
		EndPointFrac: b.cfg.EndPointFrac,
		EndPoints:    b.cfg.EndPoints,
		Percentiles:  b.cfg.Percentiles,
		Workers:      b.cfg.Workers,
	})
	return f
}

// putFinder folds the finder's work counters into the build total and
// returns it to the pool.
func (b *builder) putFinder(f *split.Finder) {
	b.mu.Lock()
	b.stats.Add(f.Stats())
	b.mu.Unlock()
	finders.Put(f)
}

// build grows the subtree for the given fractional tuples. usedCat marks
// categorical attributes already split on by an ancestor (§7.2 heuristic:
// re-splitting them cannot gain information).
func (b *builder) build(tuples []*data.Tuple, depth int, usedCat []bool) *Node {
	classW := make([]float64, b.classes)
	total := 0.0
	for _, t := range tuples {
		classW[t.Class] += t.Weight
		total += t.Weight
	}
	node := &Node{W: total, ClassW: classW}

	if b.shouldStop(classW, total, depth) {
		node.Dist = leafDist(classW, total)
		return node
	}

	// The hook owns the clock (this package may not consult it): StartNode
	// returns a shared no-op when nothing is listening, so an unobserved
	// build pays one nil check and no time.Now pair.
	searchDone := b.cfg.Progress.StartNode()
	attr, z, catIdx, found, work := b.bestSplit(tuples, usedCat)
	searchDone(obs.NodeSearch{Depth: depth, Tuples: len(tuples), Found: found,
		Calcs: work.EntropyCalcs(), Indexed: work.Indexed})
	if !found {
		node.Dist = leafDist(classW, total)
		return node
	}

	if catIdx >= 0 {
		buckets := b.partitionCategorical(tuples, catIdx)
		nonEmpty := 0
		for _, bk := range buckets {
			if len(bk) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			node.Dist = leafDist(classW, total)
			return node
		}
		node.Cat = true
		node.Attr = catIdx
		node.Kids = make([]*Node, len(buckets))
		childUsed := make([]bool, len(usedCat))
		copy(childUsed, usedCat)
		childUsed[catIdx] = true
		for v, bk := range buckets {
			if len(bk) == 0 {
				// An unpopulated branch predicts the parent distribution.
				node.Kids[v] = &Node{Dist: leafDist(classW, total), W: 0, ClassW: make([]float64, b.classes)}
				continue
			}
			node.Kids[v] = b.build(bk, depth+1, childUsed)
		}
		return node
	}

	left, right := b.partitionNumeric(tuples, attr, z)
	if len(left) == 0 || len(right) == 0 {
		node.Dist = leafDist(classW, total)
		return node
	}
	node.Attr = attr
	node.Split = z
	// With parallelism enabled and a token available, build the left
	// subtree concurrently; otherwise recurse serially. Tokens are bounded
	// by Config.Parallelism-1, so the total number of active subtree
	// builders never exceeds Config.Parallelism.
	if b.sem != nil {
		select {
		case b.sem <- struct{}{}:
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-b.sem }()
				node.Left = b.build(left, depth+1, usedCat)
			}()
			node.Right = b.build(right, depth+1, usedCat)
			wg.Wait()
			return node
		default:
		}
	}
	node.Left = b.build(left, depth+1, usedCat)
	node.Right = b.build(right, depth+1, usedCat)
	return node
}

// shouldStop applies the §4.1 stopping conditions and the pre-pruning
// thresholds.
func (b *builder) shouldStop(classW []float64, total float64, depth int) bool {
	if total <= 0 {
		return true
	}
	nonzero := 0
	for _, w := range classW {
		if w > 1e-12 {
			nonzero++
		}
	}
	if nonzero <= 1 {
		return true // all tuples share one class label
	}
	if total < b.cfg.MinWeight {
		return true
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return true
	}
	return false
}

// bestSplit searches numeric and categorical attributes and returns the
// winner and the search's work counters. catIdx is -1 for a numeric split.
func (b *builder) bestSplit(tuples []*data.Tuple, usedCat []bool) (attr int, z float64, catIdx int, found bool, work split.Stats) {
	finder := b.getFinder()
	defer b.putFinder(finder)
	res := finder.Best(tuples, b.numAttr, b.classes)
	bestScore := math.Inf(1)
	if res.Found && res.Gain > b.cfg.MinGain {
		attr, z, catIdx, found = res.Attr, res.Z, -1, true
		bestScore = res.Score
	}
	for ci := range b.catAttr {
		if usedCat[ci] {
			continue
		}
		score, ok := finder.CategoricalScore(tuples, ci, len(b.catAttr[ci].Domain), b.classes)
		if ok && score < bestScore {
			// Gain check mirrors the numeric path.
			if b.catGain(tuples, score) > b.cfg.MinGain {
				attr, z, catIdx, found = 0, 0, ci, true
				bestScore = score
			}
		}
	}
	// A pooled finder's counters are zeroed when it is taken, so they hold
	// this search's work alone.
	return attr, z, catIdx, found, finder.Stats()
}

// catGain converts a categorical split score into a gain against the parent
// impurity (for gain ratio the score already is the negated ratio).
func (b *builder) catGain(tuples []*data.Tuple, score float64) float64 {
	if b.cfg.Measure == split.GainRatio {
		return -score
	}
	classW := make([]float64, b.classes)
	total := 0.0
	for _, t := range tuples {
		classW[t.Class] += t.Weight
		total += t.Weight
	}
	var parent float64
	if b.cfg.Measure == split.Gini {
		parent = giniImpurity(classW, total)
	} else {
		parent = entropyImpurity(classW, total)
	}
	return parent - score
}

// partitionNumeric splits the tuples at (attr, z) per §4.2: pdfs entirely on
// one side keep the whole tuple; straddling pdfs become two fractional
// tuples with renormalised conditional pdfs. Tuples missing the attribute
// are distributed proportionally to the observed subset weights (the C4.5
// missing-value convention the paper's §2 discussion encapsulates).
func (b *builder) partitionNumeric(tuples []*data.Tuple, attr int, z float64) (left, right []*data.Tuple) {
	var missing []*data.Tuple
	var wLeft, wRight float64
	for _, t := range tuples {
		p := t.Num[attr]
		if p == nil {
			missing = append(missing, t)
			continue
		}
		pl, pr, pL := p.SplitAt(z)
		if pr == nil {
			left = append(left, t)
			wLeft += t.Weight
			continue
		}
		if pl == nil {
			right = append(right, t)
			wRight += t.Weight
			continue
		}
		tl := t.CloneShallow()
		tl.Weight = t.Weight * pL
		tl.Num[attr] = pl
		tr := t.CloneShallow()
		tr.Weight = t.Weight * (1 - pL)
		tr.Num[attr] = pr
		if tl.Weight > weightEps {
			left = append(left, tl)
			wLeft += tl.Weight
		}
		if tr.Weight > weightEps {
			right = append(right, tr)
			wRight += tr.Weight
		}
	}
	if len(missing) > 0 && wLeft+wRight > 0 {
		fl := wLeft / (wLeft + wRight)
		for _, t := range missing {
			tl := t.CloneShallow()
			tl.Weight = t.Weight * fl
			tr := t.CloneShallow()
			tr.Weight = t.Weight * (1 - fl)
			if tl.Weight > weightEps {
				left = append(left, tl)
			}
			if tr.Weight > weightEps {
				right = append(right, tr)
			}
		}
	}
	return left, right
}

// partitionCategorical copies each tuple into the bucket of every domain
// value carrying probability mass, with weight scaled by that mass and the
// attribute collapsed onto the value (§7.2).
func (b *builder) partitionCategorical(tuples []*data.Tuple, catIdx int) [][]*data.Tuple {
	dom := len(b.catAttr[catIdx].Domain)
	buckets := make([][]*data.Tuple, dom)
	for _, t := range tuples {
		d := t.Cat[catIdx]
		if d == nil {
			continue
		}
		for v, p := range d {
			w := t.Weight * p
			if w <= weightEps {
				continue
			}
			ty := t.CloneShallow()
			ty.Weight = w
			ty.Cat[catIdx] = data.NewCatPoint(v, dom)
			buckets[v] = append(buckets[v], ty)
		}
	}
	return buckets
}

// weightEps drops fractional tuples whose weight has collapsed to
// floating-point dust, keeping the recursion finite.
const weightEps = 1e-12

// leafDist normalises class weights into a leaf distribution.
func leafDist(classW []float64, total float64) []float64 {
	dist := make([]float64, len(classW))
	if total <= 0 {
		return dist
	}
	for c, w := range classW {
		dist[c] = w / total
	}
	return dist
}

// countNodes returns node count, leaf count and depth of the subtree.
func countNodes(n *Node) (nodes, leaves, depth int) {
	if n == nil {
		return 0, 0, 0
	}
	nodes = 1
	if n.IsLeaf() {
		return 1, 1, 1
	}
	maxChild := 0
	for _, ch := range n.children() {
		cn, cl, cd := countNodes(ch)
		nodes += cn
		leaves += cl
		if cd > maxChild {
			maxChild = cd
		}
	}
	return nodes, leaves, maxChild + 1
}

// children returns the node's children regardless of node type.
func (n *Node) children() []*Node {
	if n.Cat {
		return n.Kids
	}
	if n.Left == nil && n.Right == nil {
		return nil
	}
	return []*Node{n.Left, n.Right}
}

// entropyImpurity and giniImpurity mirror the split package's measures for
// parent-gain computation.
func entropyImpurity(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

func giniImpurity(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 0.0
	for _, c := range counts {
		p := c / total
		s += p * p
	}
	return 1 - s
}

// String renders a summary line.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{nodes=%d leaves=%d depth=%d classes=%d}",
		t.Stats.Nodes, t.Stats.Leaves, t.Stats.Depth, len(t.Classes))
}
