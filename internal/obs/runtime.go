package obs

import (
	"runtime"
	"sync"

	"udt/internal/latency"
)

// RuntimeStats collects process runtime metrics on demand. GC pauses are
// folded into a shared-geometry latency histogram incrementally: each
// Snapshot reads the MemStats pause ring and records only the cycles that
// finished since the previous Snapshot, so the histogram is cumulative over
// the process lifetime (bounded by the ring's 256-cycle memory between
// scrapes).
type RuntimeStats struct {
	mu        sync.Mutex
	lastNumGC uint32
	pauses    latency.AtomicHist
}

// RuntimeSnapshot is one point-in-time view of the process runtime, for a
// server's metric inventory (see Export).
type RuntimeSnapshot struct {
	HeapAllocBytes     uint64
	HeapSysBytes       uint64
	HeapObjects        uint64
	Goroutines         int
	GCCycles           int64
	GCPauseTotalMicros int64
	GCPauses           *latency.Snapshot
}

// Snapshot reads the runtime state. Safe for concurrent use; concurrent
// snapshots serialise so every finished GC cycle's pause is recorded exactly
// once.
func (r *RuntimeStats) Snapshot() RuntimeSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// PauseNs is a circular buffer: the pause of cycle c lives at index
	// (c+255)%256. Fold in the cycles since the last snapshot, bounded to
	// the 256 the ring remembers.
	from := r.lastNumGC
	if ms.NumGC > from+256 {
		from = ms.NumGC - 256
	}
	for c := from + 1; c <= ms.NumGC; c++ {
		ns := ms.PauseNs[(c+255)%256]
		r.pauses.ObserveNanos(int64(ns))
	}
	r.lastNumGC = ms.NumGC
	return RuntimeSnapshot{
		HeapAllocBytes:     ms.HeapAlloc,
		HeapSysBytes:       ms.HeapSys,
		HeapObjects:        ms.HeapObjects,
		Goroutines:         runtime.NumGoroutine(),
		GCCycles:           int64(ms.NumGC),
		GCPauseTotalMicros: int64(ms.PauseTotalNs / 1e3),
		GCPauses:           r.pauses.Snapshot(),
	}
}
