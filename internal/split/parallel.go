package split

import (
	"math"
	"sync"
	"sync/atomic"

	"udt/internal/data"
)

// This file implements intra-node parallel split search: Config.Workers
// goroutines cooperate on a single Best call, partitioning the work by
// attribute and, within large attributes, by contiguous candidate batches.
// For GP and ES the §5.2 global pruning threshold is shared across workers
// through an atomic minimum, so a tight bound discovered on one attribute
// immediately prunes intervals on every other — the paper's pruning power
// is preserved (and in practice strengthened: after the end-point phase no
// worker ever prunes with a threshold looser than the fully established
// end-point minimum). LP deliberately gets no cross-attribute sharing: its
// §5.2 definition is per-attribute bounding, so each interval task prunes
// only against its own attribute's end-point minimum and its own local
// improvements, keeping the UDT/BP/LP/GP/ES work-count ladder meaningful
// under parallelism.
//
// Determinism: each task folds its candidates in serial order into a
// private Result containing only candidates the task itself evaluated, and
// tasks are merged in the exact fold order of the serial strategy (per
// attribute interleaved for BP/LP, two-phase global for GP/ES) with the
// same strict-< replacement rule. For UDT and BP — the strategies that
// never bound-prune — the parallel search therefore returns the bit-identical
// Result, same tie-breaking included, on every input. For LP/GP/ES the
// result is additionally identical unless two candidates score within
// scoreEps (1e-12) of the optimum while an interval's lower bound is
// equally tight — a measure-zero float coincidence on continuous data; even
// then the returned score matches the serial score to within scoreEps
// (both searches sit within scoreEps of the true minimum, far inside the
// 1e-9 oracle tolerance). Timing otherwise changes only which intervals
// GP/ES prune (Stats), never which split is returned.

// parallelMinTuples gates the parallel path: below this node size the
// goroutine fan-out costs more than the search itself, so Best falls back
// to the serial path (which returns the identical result).
const parallelMinTuples = 64

// Batch floors: a task is never smaller than this many candidates (or
// intervals), so scheduling overhead stays negligible next to the work.
const (
	sampleBatchMin   = 512 // exhaustive UDT sample candidates per batch
	endBatchMin      = 128 // end-point candidates per batch
	intervalBatchMin = 64  // fine intervals per batch
	coarseBatchMin   = 16  // ES coarse intervals per batch
)

// atomicScore is a concurrently updated minimum score. Lower is better for
// every measure (gain-ratio scores are negated ratios), so the minimum is
// the tightest pruning threshold any worker has proven.
type atomicScore struct{ bits atomic.Uint64 }

func newAtomicScore() *atomicScore {
	a := &atomicScore{}
	a.bits.Store(math.Float64bits(math.Inf(1)))
	return a
}

func (a *atomicScore) load() float64 { return math.Float64frombits(a.bits.Load()) }

// update lowers the stored score to s when s is smaller (a CAS minimum).
func (a *atomicScore) update(s float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) <= s {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// span is one unit of parallel work: a contiguous candidate (or interval)
// index range of one attribute. The task list is built in serial evaluation
// order, which the deterministic merge folds by.
type span struct {
	attr   int
	lo, hi int
}

// workerFor returns the cached worker finder with index i, creating it on
// first use. Worker finders are serial (Workers forced to 0) and run on one
// goroutine each: private scratch, private stats, and a pointer to the
// parent's shared pruning threshold (nil for the strategies that must not
// share one).
func (f *Finder) workerFor(i int) *Finder {
	for len(f.workers) <= i {
		cfg := f.cfg
		cfg.Workers = 0
		f.workers = append(f.workers, NewFinder(cfg))
	}
	w := f.workers[i]
	w.shared = f.shared
	return w
}

// runTasks executes fn(w, t) for every task index t in [0, n) on up to
// Config.Workers goroutines. Tasks are claimed through an atomic counter
// and each goroutine owns one worker finder, so the hot path takes no
// locks. After the barrier the workers' stats are folded into the parent —
// the only synchronisation on the counters.
func (f *Finder) runTasks(n int, fn func(w *Finder, t int)) {
	if n <= 0 {
		return
	}
	nw := f.cfg.Workers
	if nw > n {
		nw = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		w := f.workerFor(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				fn(w, t)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < nw; i++ {
		f.stats.Add(f.workers[i].stats)
		f.workers[i].ResetStats()
		f.workers[i].shared = nil
	}
}

// batches splits [0, n) into at most Config.Workers contiguous pieces of at
// least minLen candidates each, preserving order.
func (f *Finder) batches(n, minLen int) [][2]int {
	if n <= 0 {
		return nil
	}
	pieces := n / minLen
	if pieces > f.cfg.Workers {
		pieces = f.cfg.Workers
	}
	if pieces < 1 {
		pieces = 1
	}
	out := make([][2]int, 0, pieces)
	for p := 0; p < pieces; p++ {
		lo, hi := p*n/pieces, (p+1)*n/pieces
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// mergeResults folds per-task results in serial task order with the serial
// strict-< replacement rule, reproducing the serial search's tie-breaking:
// on equal scores the earliest candidate in serial evaluation order wins.
func mergeResults(best *Result, results []Result) {
	for _, r := range results {
		if r.Found && r.Score < best.Score {
			*best = r
		}
	}
}

// spanTasks builds one span per batch of every attribute, in serial
// (attribute, batch) order. size(j) gives the per-attribute task count.
func (f *Finder) spanTasks(views []*attrView, minLen int, size func(j int) int) []span {
	var tasks []span
	for j, v := range views {
		if v == nil {
			continue
		}
		for _, b := range f.batches(size(j), minLen) {
			tasks = append(tasks, span{attr: j, lo: b[0], hi: b[1]})
		}
	}
	return tasks
}

// bestParallel runs the configured strategy across the worker pool and
// folds the winner into best. It mirrors bestSerial case by case.
func (f *Finder) bestParallel(tuples []*data.Tuple, numAttrs, numClasses int, parentH float64, best *Result) {
	// Only GP and ES define a cross-attribute threshold; sharing one under
	// LP would silently upgrade it to GP-strength pruning and distort the
	// §5 ladder.
	if f.cfg.Strategy == GP || f.cfg.Strategy == ES {
		f.shared = newAtomicScore()
		defer func() { f.shared = nil }()
	}

	// Index every attribute concurrently, each into its own view of f's
	// with the worker's merge buffers, and for the interval strategies
	// into its own end-point index, which keeps the full view; both are
	// read-only afterwards.
	f.views = resize(f.views, numAttrs)
	f.sums = resize(f.sums, numAttrs)
	views := make([]*attrView, numAttrs)
	needEnds := f.cfg.Strategy == BP || f.cfg.Strategy == LP || f.cfg.Strategy == GP || f.cfg.Strategy == ES
	f.runTasks(numAttrs, func(w *Finder, j int) {
		views[j] = w.indexInto(&f.views[j], tuples, j, numClasses)
		if views[j] != nil && needEnds {
			f.sums[j].summarize(views[j], w.endsFor(views[j]))
		}
	})

	switch f.cfg.Strategy {
	case BP, LP:
		f.parallelInterleaved(views, f.sums, numClasses, parentH, best)
	case GP:
		f.parallelGP(views, f.sums, numClasses, parentH, best)
	case ES:
		f.parallelES(views, f.sums, numClasses, parentH, best)
	default: // UDT and unknown strategies: exhaustive
		f.parallelExhaustive(views, numClasses, parentH, best)
	}
}

// parallelExhaustive is the UDT search: every pdf sample location except
// the largest is a candidate, batched across workers.
func (f *Finder) parallelExhaustive(views []*attrView, numClasses int, parentH float64, best *Result) {
	tasks := f.spanTasks(views, sampleBatchMin, func(j int) int { return len(views[j].xs) - 1 })
	results := make([]Result, len(tasks))
	f.runTasks(len(tasks), func(w *Finder, t int) {
		sp := tasks[t]
		w.ensureScratch(numClasses)
		v := views[sp.attr]
		local := Result{Score: math.Inf(1)}
		for r := sp.lo; r < sp.hi; r++ {
			w.evalCandidate(v, sp.attr, r, parentH, &local)
		}
		results[t] = local
	})
	mergeResults(best, results)
}

// runEndPointTasks evaluates the given end-point spans (each batch folds a
// contiguous range of the end points of sums[attr]) and returns one Result
// per task in task order.
func (f *Finder) runEndPointTasks(sums []endIndex, tasks []span, numClasses int, parentH float64) []Result {
	results := make([]Result, len(tasks))
	f.runTasks(len(tasks), func(w *Finder, t int) {
		sp := tasks[t]
		w.ensureScratch(numClasses)
		s := &sums[sp.attr]
		local := Result{Score: math.Inf(1)}
		for e := sp.lo; e < sp.hi; e++ {
			w.evalCandidate(&s.attrView, sp.attr, e, parentH, &local)
		}
		results[t] = local
	})
	return results
}

// parallelInterleaved covers BP and LP, whose serial search folds each
// attribute's end points and then its intervals before moving to the next
// attribute. Both phases still run as worker batches (the end-point barrier
// lets LP seed each attribute's interval tasks with that attribute's own
// end-point minimum — the §5.2 per-attribute threshold), but the merge
// interleaves per attribute to reproduce the serial fold order exactly.
func (f *Finder) parallelInterleaved(views []*attrView, sums []endIndex, numClasses int, parentH float64, best *Result) {
	endTasks := f.spanTasks(views, endBatchMin, func(j int) int { return len(sums[j].xs) - 1 })
	endResults := f.runEndPointTasks(sums, endTasks, numClasses, parentH)

	// Per-attribute end-point winners, folded in batch order.
	endBest := make([]Result, len(views))
	for j := range endBest {
		endBest[j] = Result{Score: math.Inf(1)}
	}
	for t, r := range endResults {
		mergeResults(&endBest[endTasks[t].attr], []Result{r})
	}

	useBound := f.cfg.Strategy == LP
	ivTasks := f.spanTasks(views, intervalBatchMin, func(j int) int { return len(sums[j].xs) - 1 })
	ivResults := make([]Result, len(ivTasks))
	f.runTasks(len(ivTasks), func(w *Finder, t int) {
		sp := ivTasks[t]
		w.ensureScratch(numClasses)
		// LP prunes against its own attribute's end-point minimum plus
		// improvements found by this task. The seed is one of the
		// attribute's own candidates, so returning it unimproved cannot
		// perturb the merge (it folds right after the identical end-point
		// result and strict-< discards it).
		local := endBest[sp.attr]
		w.evalIntervals(&sums[sp.attr], sp.attr, sp.lo, sp.hi, parentH, useBound, &local)
		ivResults[t] = local
	})

	// Serial fold order: attribute by attribute, end points then intervals.
	it := 0
	for j, v := range views {
		if v == nil {
			continue
		}
		mergeResults(best, []Result{endBest[j]})
		for ; it < len(ivTasks) && ivTasks[it].attr == j; it++ {
			mergeResults(best, []Result{ivResults[it]})
		}
	}
}

// parallelGP mirrors the serial GP two-phase search. Phase 1 evaluates
// every end point of every attribute; its merged minimum is exactly the
// serial phase-1 threshold, seeded into the shared atomic so phase 2
// starts with full global pruning power. Phase 2 walks the fine intervals
// in worker batches, bound-pruning against the tighter of the task-local
// best and the shared threshold.
func (f *Finder) parallelGP(views []*attrView, sums []endIndex, numClasses int, parentH float64, best *Result) {
	endTasks := f.spanTasks(views, endBatchMin, func(j int) int { return len(sums[j].xs) - 1 })
	mergeResults(best, f.runEndPointTasks(sums, endTasks, numClasses, parentH))
	if best.Found {
		f.shared.update(best.Score)
	}

	tasks := f.spanTasks(views, intervalBatchMin, func(j int) int { return len(sums[j].xs) - 1 })
	results := make([]Result, len(tasks))
	f.runTasks(len(tasks), func(w *Finder, t int) {
		sp := tasks[t]
		w.ensureScratch(numClasses)
		local := Result{Score: math.Inf(1)}
		w.evalIntervals(&sums[sp.attr], sp.attr, sp.lo, sp.hi, parentH, true, &local)
		results[t] = local
	})
	mergeResults(best, results)
}

// parallelES mirrors bestES: phase 1 evaluates the sampled end points of
// every attribute to establish the global threshold (§5.3); phase 2 batches
// the coarse intervals across workers, expanding survivors to their fine
// end points and intervals.
func (f *Finder) parallelES(views []*attrView, sums []endIndex, numClasses int, parentH float64, best *Result) {
	stride := f.esStride()
	sampled := make([][]int, len(views))
	for j, v := range views {
		if v != nil {
			sampled[j] = sampleIndices(len(sums[j].xs), stride)
		}
	}

	tasks := f.spanTasks(views, endBatchMin, func(j int) int { return len(sampled[j]) })
	results := make([]Result, len(tasks))
	f.runTasks(len(tasks), func(w *Finder, t int) {
		sp := tasks[t]
		w.ensureScratch(numClasses)
		s := &sums[sp.attr]
		local := Result{Score: math.Inf(1)}
		for _, e := range sampled[sp.attr][sp.lo:sp.hi] {
			if e+1 < len(s.xs) { // the largest end point is no valid split
				w.evalCandidate(&s.attrView, sp.attr, e, parentH, &local)
			}
		}
		results[t] = local
	})
	mergeResults(best, results)
	if best.Found {
		f.shared.update(best.Score)
	}

	tasks = f.spanTasks(views, coarseBatchMin, func(j int) int { return len(sampled[j]) - 1 })
	results = make([]Result, len(tasks))
	f.runTasks(len(tasks), func(w *Finder, t int) {
		sp := tasks[t]
		w.ensureScratch(numClasses)
		local := Result{Score: math.Inf(1)}
		w.esExpandRange(&sums[sp.attr], sp.attr, sampled[sp.attr], sp.lo, sp.hi, parentH, &local)
		results[t] = local
	})
	mergeResults(best, results)
}
