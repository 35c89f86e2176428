package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"udt/internal/latency"
)

// NodeSearch is one per-node split-search observation from core.Build: how
// long the best-split search over the node's tuples took, what work it did,
// and whether it found a split (an internal node) or gave up (a leaf).
type NodeSearch struct {
	Depth   int
	Tuples  int
	Elapsed time.Duration
	Found   bool
	Calcs   int64 // entropy calculations: split evaluations plus bounds
	Indexed int64 // pdf sample points merged into attribute views
}

// MemberBuild is one finished ensemble member from forest.Train.
type MemberBuild struct {
	Index   int // member index, 0-based
	Total   int // ensemble size
	Nodes   int
	Depth   int
	Elapsed time.Duration
}

// BoostRound is one boosting round from boost.Train: the member's weighted
// training error, its SAMME vote weight, and whether the round was kept
// (rounds at or beyond the chance bound are discarded and end training).
type BoostRound struct {
	Round int // 1-based
	Error float64
	Alpha float64
	Kept  bool
}

// ProgressHook receives training-side instrumentation events. Any field may
// be nil; the dispatch methods are nil-receiver safe, so training code calls
// them unconditionally and an uninstrumented build pays only a nil check.
// Hooks observe training — they must never influence it — and may be called
// concurrently from parallel subtree or member builds, so implementations
// must be safe for concurrent use.
type ProgressHook struct {
	OnNode   func(NodeSearch)
	OnMember func(MemberBuild)
	OnRound  func(BoostRound)
}

// Node dispatches a per-node split-search event.
func (h *ProgressHook) Node(e NodeSearch) {
	if h != nil && h.OnNode != nil {
		h.OnNode(e)
	}
}

// Member dispatches a finished-member event.
func (h *ProgressHook) Member(e MemberBuild) {
	if h != nil && h.OnMember != nil {
		h.OnMember(e)
	}
}

// Shared no-op completions, so an unobserved build allocates nothing.
var (
	nopNodeDone   = func(NodeSearch) {}
	nopMemberDone = func(MemberBuild) {}
)

// StartNode begins timing one split search and returns its completion
// callback, which stamps Elapsed before dispatch. The clock lives here, not
// in the training packages: core and forest are determinism-critical
// (udtlint forbids them the wall clock), and keeping time.Now behind the
// hook both satisfies that gate and makes the no-observer case free of
// clock reads entirely.
func (h *ProgressHook) StartNode() func(NodeSearch) {
	if h == nil || h.OnNode == nil {
		return nopNodeDone
	}
	start := time.Now()
	return func(e NodeSearch) {
		e.Elapsed = time.Since(start)
		h.OnNode(e)
	}
}

// StartMember begins timing one ensemble member build and returns its
// completion callback, which stamps Elapsed before dispatch.
func (h *ProgressHook) StartMember() func(MemberBuild) {
	if h == nil || h.OnMember == nil {
		return nopMemberDone
	}
	start := time.Now()
	return func(e MemberBuild) {
		e.Elapsed = time.Since(start)
		h.OnMember(e)
	}
}

// Round dispatches a boosting-round event.
func (h *ProgressHook) Round(e BoostRound) {
	if h != nil && h.OnRound != nil {
		h.OnRound(e)
	}
}

// TrainProgress is the standard ProgressHook sink behind "udtree train
// -progress" and "udtbench -progress": it aggregates split-search timing
// into the shared latency buckets, records member and round events, and —
// when constructed with a writer — narrates members and rounds live.
type TrainProgress struct {
	nodes       atomic.Int64
	foundSplits atomic.Int64
	searchNanos atomic.Int64
	calcs       atomic.Int64
	indexed     atomic.Int64
	searchHist  latency.AtomicHist

	mu      sync.Mutex
	w       io.Writer // nil = collect silently
	members []MemberBuild
	rounds  []BoostRound
}

// NewTrainProgress returns a collector; a non-nil w gets one line per
// finished member and per boosting round as they happen.
func NewTrainProgress(w io.Writer) *TrainProgress {
	return &TrainProgress{w: w}
}

// Hook returns the ProgressHook feeding this collector.
func (p *TrainProgress) Hook() *ProgressHook {
	return &ProgressHook{
		OnNode:   p.onNode,
		OnMember: p.onMember,
		OnRound:  p.onRound,
	}
}

func (p *TrainProgress) onNode(e NodeSearch) {
	p.nodes.Add(1)
	if e.Found {
		p.foundSplits.Add(1)
	}
	p.searchNanos.Add(e.Elapsed.Nanoseconds())
	p.calcs.Add(e.Calcs)
	p.indexed.Add(e.Indexed)
	p.searchHist.Observe(e.Elapsed)
}

func (p *TrainProgress) onMember(e MemberBuild) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.members = append(p.members, e)
	if p.w != nil {
		fmt.Fprintf(p.w, "progress: member %d/%d: %d nodes, depth %d in %v\n",
			e.Index+1, e.Total, e.Nodes, e.Depth, e.Elapsed.Round(time.Millisecond))
	}
}

func (p *TrainProgress) onRound(e BoostRound) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rounds = append(p.rounds, e)
	if p.w != nil {
		kept := "kept"
		if !e.Kept {
			kept = "discarded"
		}
		fmt.Fprintf(p.w, "progress: round %d: err %.4f alpha %.3f %s\n",
			e.Round, e.Error, e.Alpha, kept)
	}
}

// Nodes returns the number of split searches observed.
func (p *TrainProgress) Nodes() int64 { return p.nodes.Load() }

// FoundSplits returns how many searches produced an internal node.
func (p *TrainProgress) FoundSplits() int64 { return p.foundSplits.Load() }

// SearchNanos returns the total split-search time observed.
func (p *TrainProgress) SearchNanos() int64 { return p.searchNanos.Load() }

// SearchHist returns the split-search latency histogram.
func (p *TrainProgress) SearchHist() *latency.Snapshot { return p.searchHist.Snapshot() }

// Members returns a copy of the member events observed so far.
func (p *TrainProgress) Members() []MemberBuild {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]MemberBuild(nil), p.members...)
}

// Rounds returns a copy of the boosting-round events observed so far.
func (p *TrainProgress) Rounds() []BoostRound {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]BoostRound(nil), p.rounds...)
}

// Summary writes the end-of-training digest: split-search totals, the
// bucket where the median search landed, and the work done in the paper's
// entropy calculations and in samples indexed.
func (p *TrainProgress) Summary(w io.Writer) {
	n := p.nodes.Load()
	if n == 0 {
		fmt.Fprintln(w, "progress: no split searches observed")
		return
	}
	total := time.Duration(p.searchNanos.Load())
	line := fmt.Sprintf("progress: %d split searches (%d found) in %v (mean %v",
		n, p.foundSplits.Load(), total.Round(time.Millisecond), (total / time.Duration(n)).Round(time.Microsecond))
	if lo, hi, ok := p.searchHist.Snapshot().PercentileBounds(0.5); ok {
		if hi < 0 {
			line += fmt.Sprintf(", median > %dµs", lo)
		} else {
			line += fmt.Sprintf(", median (%d, %d]µs", lo, hi)
		}
	}
	fmt.Fprintf(w, "%s); %d entropy calcs, %d samples indexed\n", line, p.calcs.Load(), p.indexed.Load())
}
