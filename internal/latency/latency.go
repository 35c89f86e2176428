// Package latency implements the power-of-two latency histogram behind
// udtserve's and udtproxy's per-endpoint /metrics, the trace-span and
// GC-pause histograms, and the training progress digest. One fixed bucket
// geometry lets every histogram render in both /metrics dialects and answer
// percentile bounds the same way.
//
// Bucket b covers durations d with 2^(b-1) µs < d <= 2^b µs (bucket 0 covers
// everything up to 1 µs), and the last bucket is an overflow catch-all. With
// 24 buckets the histogram spans 1 µs to ~8.4 s — the full range an HTTP
// classify call can plausibly take — in a fixed 192-byte array with O(1)
// lock-free recording.
package latency

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Buckets is the number of histogram buckets, the last being the overflow
// bucket for durations above UpperBound(Buckets-2).
const Buckets = 24

// Bucket maps a duration to its bucket index: the smallest b with
// d <= 2^b µs, clamped to the overflow bucket.
func Bucket(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	b := bits.Len64(uint64(us - 1))
	if b >= Buckets {
		return Buckets - 1
	}
	return b
}

// UpperBound returns bucket b's inclusive upper bound in microseconds
// (2^b µs); the overflow bucket has no upper bound and returns -1.
func UpperBound(b int) int64 {
	if b >= Buckets-1 {
		return -1
	}
	return int64(1) << b
}

// AtomicHist is a lock-free latency histogram safe for concurrent Observe
// and Snapshot.
type AtomicHist struct {
	counts [Buckets]atomic.Int64
}

// Observe records one duration.
func (h *AtomicHist) Observe(d time.Duration) {
	h.counts[Bucket(d)].Add(1)
}

// ObserveNanos records one duration given in nanoseconds, for callers whose
// measurements are already integers (span totals, MemStats pause rings).
func (h *AtomicHist) ObserveNanos(ns int64) {
	h.counts[Bucket(time.Duration(ns))].Add(1)
}

// Snapshot captures the histogram's current counts as a serialisable value.
func (h *AtomicHist) Snapshot() *Snapshot {
	s := &Snapshot{
		BoundsMicros: make([]int64, Buckets-1),
		Counts:       make([]int64, Buckets),
	}
	for b := 0; b < Buckets-1; b++ {
		s.BoundsMicros[b] = UpperBound(b)
	}
	for b := range s.Counts {
		s.Counts[b] = h.counts[b].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a latency histogram: Counts[b] events
// fell into bucket b, whose inclusive upper bound is BoundsMicros[b]
// microseconds (the final bucket is the unbounded overflow).
type Snapshot struct {
	BoundsMicros []int64 `json:"boundsMicros"`
	Counts       []int64 `json:"counts"`
}

// Total sums the bucket counts.
func (s *Snapshot) Total() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Validate checks structural sanity of a decoded snapshot: the canonical
// bucket count, monotonically increasing bounds, and non-negative counts.
func (s *Snapshot) Validate() error {
	if s == nil {
		return errors.New("latency: nil snapshot")
	}
	if len(s.Counts) != Buckets {
		return fmt.Errorf("latency: %d buckets, want %d", len(s.Counts), Buckets)
	}
	if len(s.BoundsMicros) != Buckets-1 {
		return fmt.Errorf("latency: %d bounds, want %d", len(s.BoundsMicros), Buckets-1)
	}
	for b, bound := range s.BoundsMicros {
		if bound <= 0 {
			return fmt.Errorf("latency: bound %d is %d, want positive", b, bound)
		}
		if b > 0 && bound <= s.BoundsMicros[b-1] {
			return fmt.Errorf("latency: bounds not increasing at bucket %d", b)
		}
	}
	for b, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("latency: bucket %d has negative count %d", b, c)
		}
	}
	return nil
}

// PercentileBounds returns the bucket range containing the q-th percentile
// (q in (0, 1], nearest-rank): the true percentile lies in
// (loMicros, hiMicros] microseconds, hiMicros being -1 when the rank falls
// in the overflow bucket. ok is false on an empty histogram or out-of-range
// q.
func (s *Snapshot) PercentileBounds(q float64) (loMicros, hiMicros int64, ok bool) {
	total := s.Total()
	if total == 0 || !(q > 0 && q <= 1) {
		return 0, 0, false
	}
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range s.Counts {
		seen += c
		if seen >= rank {
			lo := int64(0)
			if b > 0 {
				lo = s.BoundsMicros[b-1]
			}
			return lo, UpperBound(b), true
		}
	}
	return 0, 0, false
}
