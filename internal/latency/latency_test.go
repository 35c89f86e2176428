package latency

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestBucketEdges pins the bucket boundaries: bucket b's inclusive upper
// bound is 2^b µs, and every duration at or just past a bound lands where
// the bound arithmetic says.
func TestBucketEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		// Durations truncate to whole microseconds before bucketing, so
		// 1.001 µs still counts as 1 µs.
		{time.Microsecond + time.Nanosecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{1024 * time.Microsecond, 10},
		{1025 * time.Microsecond, 11},
		{time.Second, 20},
		{10 * time.Second, Buckets - 1},
		{time.Hour, Buckets - 1},
	}
	for _, c := range cases {
		if got := Bucket(c.d); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestUpperBound: bounds double per bucket and the overflow bucket reports
// no bound.
func TestUpperBound(t *testing.T) {
	if UpperBound(0) != 1 || UpperBound(10) != 1024 {
		t.Fatalf("UpperBound(0)=%d UpperBound(10)=%d", UpperBound(0), UpperBound(10))
	}
	if UpperBound(Buckets-1) != -1 {
		t.Fatalf("overflow bucket bound = %d", UpperBound(Buckets-1))
	}
}

// TestHistObserveSnapshot: concurrent observations all land, and the
// snapshot round-trips through JSON and validates.
func TestHistObserveSnapshot(t *testing.T) {
	var h AtomicHist
	const per = 500
	durations := []time.Duration{time.Microsecond, time.Millisecond, time.Second, time.Minute}
	var wg sync.WaitGroup
	for _, d := range durations {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(d)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Total(); got != int64(per*len(durations)) {
		t.Fatalf("total = %d, want %d", got, per*len(durations))
	}
	if s.Counts[0] != per || s.Counts[10] != per || s.Counts[20] != per || s.Counts[Buckets-1] != per {
		t.Fatalf("counts misplaced: %v", s.Counts)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Total() != s.Total() {
		t.Fatalf("round-trip total %d != %d", back.Total(), s.Total())
	}
}

// TestPercentileBounds: nearest-rank percentiles land in the bucket holding
// the ranked observation, with the overflow bucket reporting an open upper
// bound.
func TestPercentileBounds(t *testing.T) {
	var h AtomicHist
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket 7 (64, 128]
	}
	for i := 0; i < 9; i++ {
		h.Observe(10 * time.Millisecond) // bucket 14
	}
	h.Observe(time.Minute) // overflow
	s := h.Snapshot()
	if lo, hi, ok := s.PercentileBounds(0.50); !ok || lo != 64 || hi != 128 {
		t.Fatalf("p50 = (%d, %d, %v)", lo, hi, ok)
	}
	if lo, hi, ok := s.PercentileBounds(0.95); !ok || lo != 8192 || hi != 16384 {
		t.Fatalf("p95 = (%d, %d, %v)", lo, hi, ok)
	}
	if _, hi, ok := s.PercentileBounds(1.0); !ok || hi != -1 {
		t.Fatalf("p100 hi = %d, ok = %v", hi, ok)
	}
	empty := (&AtomicHist{}).Snapshot()
	if _, _, ok := empty.PercentileBounds(0.5); ok {
		t.Fatal("empty histogram produced a percentile")
	}
	if _, _, ok := s.PercentileBounds(0); ok {
		t.Fatal("q=0 accepted")
	}
	if _, _, ok := s.PercentileBounds(1.5); ok {
		t.Fatal("q>1 accepted")
	}
}

// TestValidateRejects: malformed decoded snapshots fail validation.
func TestValidateRejects(t *testing.T) {
	good := (&AtomicHist{}).Snapshot()
	cases := map[string]func(*Snapshot){
		"wrong bucket count":  func(s *Snapshot) { s.Counts = s.Counts[:3] },
		"wrong bound count":   func(s *Snapshot) { s.BoundsMicros = s.BoundsMicros[:3] },
		"negative count":      func(s *Snapshot) { s.Counts[5] = -1 },
		"non-positive bound":  func(s *Snapshot) { s.BoundsMicros[0] = 0 },
		"non-monotonic bound": func(s *Snapshot) { s.BoundsMicros[5] = s.BoundsMicros[4] },
	}
	for name, mutate := range cases {
		s := &Snapshot{
			BoundsMicros: append([]int64{}, good.BoundsMicros...),
			Counts:       append([]int64{}, good.Counts...),
		}
		mutate(s)
		if s.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var nilSnap *Snapshot
	if nilSnap.Validate() == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestObserveNanos: the int64-nanosecond entry point lands events in the
// same buckets Observe would, including sub-microsecond and zero inputs.
func TestObserveNanos(t *testing.T) {
	var h AtomicHist
	h.ObserveNanos(0)
	h.ObserveNanos(999)                           // < 1µs -> bucket 0
	h.ObserveNanos(int64(3 * time.Microsecond))   // bucket 2
	h.ObserveNanos(int64(500 * time.Microsecond)) // bucket 9
	s := h.Snapshot()
	if s.Counts[0] != 2 || s.Counts[2] != 1 || s.Counts[9] != 1 {
		t.Fatalf("counts misplaced: %v", s.Counts)
	}

	var ref AtomicHist
	ref.Observe(500 * time.Microsecond)
	if ref.Snapshot().Counts[9] != 1 {
		t.Fatal("ObserveNanos and Observe disagree on bucket placement")
	}
}
