// Package forest implements bagged ensembles of uncertain decision trees,
// and is the one runtime model type: a boosted ensemble is a forest with
// weighted votes, and a single tree is a forest of one member (KindTree).
// Each bagged member is trained on a bootstrap resample of the training
// tuples, optionally restricted to a random attribute subset, and all
// members are compiled into one hash-consed node arena (core.Arena), so
// inference is the zero-allocation compiled descent — repeated per member
// and averaged.
//
// Forest voting is distribution averaging: the classification distribution
// of the ensemble is the mean of the member distributions, the same
// operation the paper's Averaging baseline applies within one tree, lifted
// across trees. Training is embarrassingly parallel and deterministic: every
// member derives its own RNG stream from Config.Seed and its tree index, so
// the forest is bit-for-bit identical at any Config.Workers value.
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/obs"
	"udt/internal/par"
	"udt/internal/pdf"
)

// Config controls forest training.
type Config struct {
	Trees        int         // ensemble size (default 25)
	SampleRatio  float64     // bootstrap sample size as a fraction of the training set, in (0, 1] (default 1)
	AttrsPerTree int         // attributes visible to each tree; 0 means all
	Seed         int64       // base RNG seed; per-tree streams derive from it
	Workers      int         // concurrent member builds (<= 1 means serial); never changes the result
	TreeConfig   core.Config // member tree construction (post-pruning off by default: bagging prefers low-bias members)
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 25
	}
	if c.SampleRatio == 0 {
		c.SampleRatio = 1
	}
	return c
}

// OOBStats summarises the out-of-bag evaluation computed during training:
// every tuple is classified by the members whose bootstrap sample missed it,
// an unbiased estimate of generalisation without a held-out set.
type OOBStats struct {
	Accuracy  float64 `json:"accuracy"`
	Brier     float64 `json:"brier"`
	Evaluated int     `json:"evaluated"` // tuples with at least one out-of-bag member
}

// Ensemble kinds: how the members were trained and how their votes combine.
// A single decision tree is the one-member case: its forest classifies
// exactly like the tree (one vote of weight 1 divides by exactly 1.0), so
// every model — tree or ensemble — is served, staged and stored as a Forest.
const (
	KindTree    = "tree"    // one member of vote weight 1: a single decision tree
	KindBagged  = "bagged"  // uniform votes over bootstrap-resampled members
	KindBoosted = "boosted" // SAMME vote weights from internal/boost
)

// member is one tree of the ensemble. numIdx/catIdx map the member's
// (possibly projected) attribute schema back onto the forest schema; both
// nil means the member sees every attribute. weight is the member's vote
// weight (1 for bagged members, the SAMME alpha for boosted ones). tree is
// the pointer-linked source tree when the member came from training or a
// JSON container; members loaded from the binary format carry only their
// root in the forest's arena and a nil tree (stats holds their build
// statistics either way, so Stats and Describe never need the tree).
type member struct {
	tree     *core.Tree
	compiled *core.Compiled // the engine at root over the forest's arena
	root     int32
	numIdx   []int
	catIdx   []int
	weight   float64
	stats    core.BuildStats
}

// Forest is a trained model — a single tree, or an ensemble with bagged
// (uniform) or boosted (weighted) votes. It is immutable after construction
// and safe for concurrent use.
type Forest struct {
	Classes  []string
	NumAttrs []data.Attribute
	CatAttrs []data.Attribute
	OOB      OOBStats
	Config   Config // the training configuration; zero for loaded models

	kind    string // KindTree, KindBagged or KindBoosted; "" means KindBagged
	members []member
	arena   *core.Arena // every member's nodes, hash-consed across members

	// Staged-evaluation state, precomputed by initStaged (see staged.go).
	order     []int     // member indices by descending vote weight, stable
	exitUB    []float64 // [(stage)*nc + class]: max vote mass the unevaluated members can add
	exitSlack float64   // float-rounding safety margin for the exit test
}

// NumTrees reports the ensemble size.
func (f *Forest) NumTrees() int { return len(f.members) }

// Kind reports what the model is: KindTree (a single tree), KindBagged
// (uniform votes) or KindBoosted (weighted votes).
func (f *Forest) Kind() string {
	if f.kind == "" {
		return KindBagged
	}
	return f.kind
}

// Weights returns a copy of the per-member vote weights, in member order.
func (f *Forest) Weights() []float64 {
	ws := make([]float64, len(f.members))
	for t := range f.members {
		ws[t] = f.members[t].weight
	}
	return ws
}

// WeightedTree pairs one member tree with its vote weight for FromTrees.
// Members also reports each member's engine in Compiled; FromTrees ignores
// that field and compiles every tree into the new forest's arena.
type WeightedTree struct {
	Tree     *core.Tree
	Compiled *core.Compiled
	Weight   float64
}

// FromTrees assembles a model from already-built trees and their vote
// weights — the constructor internal/boost uses to package a boosted run as
// a servable Forest, and FromTree's to wrap a single tree as KindTree. Every
// tree must share the first tree's schema (boosted members always see every
// attribute, so there are no index maps), every weight must be positive and
// finite, and the kind's structural rule must hold (see checkKind).
func FromTrees(members []WeightedTree, kind string) (*Forest, error) {
	if len(members) == 0 {
		return nil, errors.New("forest: ensemble needs at least one tree")
	}
	first := members[0].Tree
	if first == nil {
		return nil, errors.New("forest: tree 0: missing tree document")
	}
	f := &Forest{
		Classes:  first.Classes,
		NumAttrs: first.NumAttrs,
		CatAttrs: first.CatAttrs,
		kind:     kind,
		members:  make([]member, len(members)),
	}
	for t, wt := range members {
		if wt.Tree == nil {
			return nil, fmt.Errorf("forest: tree %d: missing tree document", t)
		}
		f.members[t] = member{tree: wt.Tree, weight: wt.Weight, stats: wt.Tree.Stats}
	}
	if err := f.assemble(nil); err != nil {
		return nil, err
	}
	return f, nil
}

// FromTree wraps one built tree as the one-member KindTree model, which
// classifies, describes and serialises exactly as the tree. It fails only if
// the tree is nil or does not compile.
func FromTree(t *core.Tree) (*Forest, error) {
	return FromTrees([]WeightedTree{{Tree: t, Weight: 1}}, KindTree)
}

// checkKind enforces the model kind's structural rule, the one place it is
// checked for every constructor that takes a kind. A tree has exactly one
// member, of vote weight 1, with no attribute projection and no out-of-bag
// statistics: then it classifies, describes and serialises exactly as the
// single tree it wraps.
func (f *Forest) checkKind() error {
	switch f.kind {
	case KindBagged, KindBoosted:
		return nil
	case KindTree:
	default:
		return fmt.Errorf("forest: unknown ensemble kind %q", f.kind)
	}
	if len(f.members) != 1 {
		return fmt.Errorf("forest: a tree has exactly one member, got %d", len(f.members))
	}
	switch m := &f.members[0]; {
	case m.weight != 1:
		return fmt.Errorf("forest: a tree's vote weight is 1, got %v", m.weight)
	case m.numIdx != nil || m.catIdx != nil:
		return errors.New("forest: a tree carries no attribute projection")
	case f.OOB != (OOBStats{}):
		return errors.New("forest: a tree carries no out-of-bag statistics")
	}
	return nil
}

// MemberTree returns member t's pointer-linked tree. Members loaded from the
// binary format keep only the compiled engine; theirs is rebuilt by
// Compiled.Decompile on every call.
func (f *Forest) MemberTree(t int) (*core.Tree, error) {
	m := &f.members[t]
	if m.tree != nil {
		return m.tree, nil
	}
	return m.compiled.Decompile()
}

// Members returns the ensemble's trees and their vote weights in member
// (storage) order, sharing the compiled engines with the forest. Note that
// FromTrees cannot round-trip members trained with attribute projections
// (AttrsPerTree > 0): their trees carry the projected schema.
func (f *Forest) Members() []WeightedTree {
	out := make([]WeightedTree, len(f.members))
	for t := range f.members {
		m := &f.members[t]
		out[t] = WeightedTree{Tree: m.tree, Compiled: m.compiled, Weight: m.weight}
	}
	return out
}

// Schema returns the class labels and attribute schema.
func (f *Forest) Schema() (classes []string, num, cat []data.Attribute) {
	return f.Classes, f.NumAttrs, f.CatAttrs
}

// Stats aggregates the members' build statistics: summed nodes, leaves,
// search counters and prune counts, maximum depth.
func (f *Forest) Stats() core.BuildStats {
	var s core.BuildStats
	for i := range f.members {
		ms := f.members[i].stats
		s.Search.Add(ms.Search)
		s.Nodes += ms.Nodes
		s.Leaves += ms.Leaves
		s.Pruned += ms.Pruned
		if ms.Depth > s.Depth {
			s.Depth = ms.Depth
		}
	}
	return s
}

// Describe renders a one-line summary for CLI and server metadata.
func (f *Forest) Describe() string {
	s := f.Stats()
	name := "forest"
	switch f.Kind() {
	case KindTree:
		return fmt.Sprintf("tree (%d nodes, depth %d)", s.Nodes, s.Depth)
	case KindBoosted:
		name = "boosted ensemble"
	}
	return fmt.Sprintf("%s (%d trees, %d nodes, depth %d)", name, len(f.members), s.Nodes, s.Depth)
}

// Train builds a bagged ensemble from the uncertain dataset. Member t draws
// its bootstrap sample and attribute subset from an RNG stream derived only
// from (cfg.Seed, t), so the forest is identical at any Workers value.
func Train(ds *data.Dataset, cfg Config) (*Forest, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, errors.New("forest: cannot train on an empty dataset")
	}
	cfg = cfg.withDefaults()
	// The negated form also rejects NaN, which passes every ordered check.
	if !(cfg.SampleRatio > 0 && cfg.SampleRatio <= 1) {
		return nil, fmt.Errorf("forest: SampleRatio %v out of (0, 1]", cfg.SampleRatio)
	}
	totalAttrs := len(ds.NumAttrs) + len(ds.CatAttrs)
	if cfg.AttrsPerTree < 0 || cfg.AttrsPerTree > totalAttrs {
		return nil, fmt.Errorf("forest: AttrsPerTree %d out of [0, %d]", cfg.AttrsPerTree, totalAttrs)
	}
	f := &Forest{
		Classes:  ds.Classes,
		NumAttrs: ds.NumAttrs,
		CatAttrs: ds.CatAttrs,
		Config:   cfg,
		kind:     KindBagged,
		members:  make([]member, cfg.Trees),
	}
	inBag := make([][]bool, cfg.Trees)
	errs := make([]error, cfg.Trees)
	// Member events flow through the same hook core.Build uses for node
	// events — one instrumentation channel for the whole training stack.
	hook := cfg.TreeConfig.Progress
	train := func(t int) {
		// The hook owns the clock — this package may not consult it.
		memberDone := hook.StartMember()
		rng := rand.New(rand.NewSource(treeSeed(cfg.Seed, t)))
		f.members[t], inBag[t], errs[t] = trainOne(ds, cfg, rng)
		if errs[t] == nil {
			stats := f.members[t].stats
			memberDone(obs.MemberBuild{
				Index: t,
				Total: cfg.Trees,
				Nodes: stats.Nodes,
				Depth: stats.Depth,
			})
		}
	}
	workers := cfg.Workers
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	if workers <= 1 {
		for t := 0; t < cfg.Trees; t++ {
			train(t)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				for {
					t := int(cursor.Add(1)) - 1
					if t >= cfg.Trees {
						return
					}
					train(t)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := f.assemble(nil); err != nil {
		return nil, err
	}
	f.computeOOB(ds, inBag)
	return f, nil
}

// treeSeed derives member t's RNG seed from the base seed with a splitmix64
// scramble, decorrelating the per-tree streams.
func treeSeed(seed int64, t int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(t+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// trainOne draws one bootstrap sample and attribute subset, builds the
// member, and reports which tuples stayed out of the bag.
func trainOne(ds *data.Dataset, cfg Config, rng *rand.Rand) (member, []bool, error) {
	n := ds.Len()
	draws := int(math.Round(cfg.SampleRatio * float64(n)))
	if draws < 1 {
		draws = 1
	}
	idx := make([]int, draws)
	sampled := make([]bool, n)
	for i := range idx {
		j := rng.Intn(n)
		idx[i] = j
		sampled[j] = true
	}
	inBag := sampled
	sample := ds.Subset(idx)
	numIdx, catIdx := pickAttrs(ds, cfg.AttrsPerTree, rng)
	if numIdx != nil || catIdx != nil {
		sample = project(sample, numIdx, catIdx)
	}
	tree, err := core.Build(sample, cfg.TreeConfig)
	if err != nil {
		return member{}, nil, fmt.Errorf("forest: member build: %w", err)
	}
	return member{tree: tree, numIdx: numIdx, catIdx: catIdx, weight: 1, stats: tree.Stats}, inBag, nil
}

// pickAttrs selects k of the dataset's attributes uniformly at random,
// returning (nil, nil) when the member sees every attribute. Numeric
// attributes occupy global indices [0, len(NumAttrs)), categorical the rest.
func pickAttrs(ds *data.Dataset, k int, rng *rand.Rand) (numIdx, catIdx []int) {
	total := len(ds.NumAttrs) + len(ds.CatAttrs)
	if k <= 0 || k >= total {
		return nil, nil
	}
	picks := rng.Perm(total)[:k]
	// Sorted order keeps the member schema in forest attribute order.
	sort.Ints(picks)
	numIdx = make([]int, 0, k)
	catIdx = make([]int, 0, k)
	for _, j := range picks {
		if j < len(ds.NumAttrs) {
			numIdx = append(numIdx, j)
		} else {
			catIdx = append(catIdx, j-len(ds.NumAttrs))
		}
	}
	return numIdx, catIdx
}

// project returns a dataset view restricted to the given attribute indices.
// pdfs and categorical distributions are shared, not copied.
func project(ds *data.Dataset, numIdx, catIdx []int) *data.Dataset {
	out := &data.Dataset{
		Name:     ds.Name,
		Classes:  ds.Classes,
		NumAttrs: make([]data.Attribute, len(numIdx)),
		CatAttrs: make([]data.Attribute, len(catIdx)),
		Tuples:   make([]*data.Tuple, ds.Len()),
	}
	for k, j := range numIdx {
		out.NumAttrs[k] = ds.NumAttrs[j]
	}
	for k, j := range catIdx {
		out.CatAttrs[k] = ds.CatAttrs[j]
	}
	for i, tu := range ds.Tuples {
		pt := &data.Tuple{Class: tu.Class, Weight: tu.Weight}
		pt.Num = make([]*pdf.PDF, len(numIdx))
		for k, j := range numIdx {
			pt.Num[k] = tu.Num[j]
		}
		pt.Cat = make([]data.CatDist, len(catIdx))
		for k, j := range catIdx {
			pt.Cat[k] = tu.Cat[j]
		}
		out.Tuples[i] = pt
	}
	return out
}

// fscratch holds a reusable projected-tuple buffer per classifying
// goroutine, so a warm forest classification performs no allocation beyond
// what the compiled members themselves pool.
type fscratch struct {
	num   []*pdf.PDF
	cat   []data.CatDist
	tuple data.Tuple
	out   []float64
}

var fscratchPool = sync.Pool{New: func() any { return new(fscratch) }}

// projected fills the scratch tuple with tu restricted to the member's
// attribute subset. The returned pointer is only valid until the next call.
//
//udt:hotpath
func (s *fscratch) projected(tu *data.Tuple, m *member) *data.Tuple {
	if m.numIdx == nil && m.catIdx == nil {
		return tu
	}
	s.num = s.num[:0]
	for _, j := range m.numIdx {
		s.num = append(s.num, tu.Num[j])
	}
	s.cat = s.cat[:0]
	for _, j := range m.catIdx {
		s.cat = append(s.cat, tu.Cat[j])
	}
	s.tuple = data.Tuple{Num: s.num, Cat: s.cat, Class: tu.Class, Weight: tu.Weight}
	return &s.tuple
}

// outBuf returns a zeroed distribution buffer of the given arity.
//
//udt:hotpath
func (s *fscratch) outBuf(nc int) []float64 {
	if cap(s.out) < nc {
		s.out = make([]float64, nc) //udt:alloc-ok amortised warm-up growth of pooled scratch
	}
	s.out = s.out[:nc]
	for i := range s.out {
		s.out[i] = 0
	}
	return s.out
}

// accumulate sums the weight-scaled member distributions for tu into out
// (not zeroed), visiting members in the staged evaluation order (descending
// vote weight, ties in member order — the member order itself for bagged
// ensembles) so the floating-point summation is deterministic and every
// staged prefix is bit-for-bit a prefix of the full sum. use filters members
// by member index; nil means all. It returns the total vote weight that
// contributed (the member count for bagged ensembles, whose weights are
// all 1).
//
//udt:hotpath
func (f *Forest) accumulate(tu *data.Tuple, out []float64, s *fscratch, use func(t int) bool) float64 {
	if use == nil {
		return f.accumulateStaged(tu, out, s, len(f.members))
	}
	total := 0.0
	for oi := range f.members {
		t := f.order[oi]
		if !use(t) {
			continue
		}
		m := &f.members[t]
		m.compiled.ClassifyIntoWeighted(s.projected(tu, m), out, m.weight)
		total += m.weight
	}
	return total
}

// Classify returns the ensemble's probability distribution over class
// labels: the vote-weight-weighted mean of the member distributions (the
// plain mean for bagged ensembles).
func (f *Forest) Classify(tu *data.Tuple) []float64 {
	out := make([]float64, len(f.Classes))
	s := fscratchPool.Get().(*fscratch)
	total := f.accumulate(tu, out, s, nil)
	fscratchPool.Put(s)
	scaleDist(out, total)
	return out
}

// Predict returns the most probable class label index under the averaged
// distribution, lowest index winning ties (Tree.Predict's convention).
func (f *Forest) Predict(tu *data.Tuple) int {
	s := fscratchPool.Get().(*fscratch)
	out := s.outBuf(len(f.Classes))
	f.accumulate(tu, out, s, nil)
	best := argmax(out)
	fscratchPool.Put(s)
	return best
}

// ClassifyBatch classifies every tuple with up to workers goroutines,
// returning one averaged distribution per tuple. Results are positionally
// identical to calling Classify per tuple.
func (f *Forest) ClassifyBatch(tuples []*data.Tuple, workers int) [][]float64 {
	out := make([][]float64, len(tuples))
	f.forEach(tuples, workers, func(i int, s *fscratch) {
		d := make([]float64, len(f.Classes))
		total := f.accumulate(tuples[i], d, s, nil)
		scaleDist(d, total)
		out[i] = d
	})
	return out
}

// PredictBatch returns the most probable class index per tuple, computed by
// up to workers goroutines.
func (f *Forest) PredictBatch(tuples []*data.Tuple, workers int) []int {
	out := make([]int, len(tuples))
	f.forEach(tuples, workers, func(i int, s *fscratch) {
		buf := s.outBuf(len(f.Classes))
		f.accumulate(tuples[i], buf, s, nil)
		out[i] = argmax(buf)
	})
	return out
}

// forEach applies fn to every tuple index, each worker carrying its own
// pooled scratch, claiming par.BatchGrain-sized blocks off an atomic cursor.
func (f *Forest) forEach(tuples []*data.Tuple, workers int, fn func(i int, s *fscratch)) {
	par.ForEach(len(tuples), workers,
		func() *fscratch { return fscratchPool.Get().(*fscratch) },
		fn,
		func(s *fscratch) { fscratchPool.Put(s) })
}

// computeOOB evaluates every training tuple against the members whose
// bootstrap sample missed it, filling f.OOB. The per-tuple work is
// independent, so it parallelises over tuples with the training Workers
// knob without affecting the result.
func (f *Forest) computeOOB(ds *data.Dataset, inBag [][]bool) {
	n := ds.Len()
	correct := make([]bool, n)
	evaluated := make([]bool, n)
	brier := make([]float64, n)
	f.forEach(ds.Tuples, f.Config.Workers, func(i int, s *fscratch) {
		out := s.outBuf(len(f.Classes))
		cnt := f.accumulate(ds.Tuples[i], out, s, func(t int) bool { return !inBag[t][i] })
		if cnt == 0 {
			return
		}
		evaluated[i] = true
		correct[i] = argmax(out) == ds.Tuples[i].Class
		sum := 0.0
		for c, p := range out {
			p /= cnt
			target := 0.0
			if c == ds.Tuples[i].Class {
				target = 1
			}
			sum += (p - target) * (p - target)
		}
		brier[i] = sum
	})
	var stats OOBStats
	hits := 0
	for i := 0; i < n; i++ {
		if !evaluated[i] {
			continue
		}
		stats.Evaluated++
		stats.Brier += brier[i]
		if correct[i] {
			hits++
		}
	}
	if stats.Evaluated > 0 {
		stats.Accuracy = float64(hits) / float64(stats.Evaluated)
		stats.Brier /= float64(stats.Evaluated)
	}
	f.OOB = stats
}

// scaleDist divides the accumulated distribution by the total vote weight,
// turning the weighted sum into the ensemble average.
func scaleDist(out []float64, total float64) {
	if total <= 0 {
		return
	}
	inv := 1 / total
	for i := range out {
		out[i] *= inv
	}
}

// argmax selects the predicted class with par.Argmax's tie-breaking (lowest
// index wins), the same convention as core.
func argmax(dist []float64) int { return par.Argmax(dist) }
