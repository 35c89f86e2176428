// Package par holds the tiny shared primitives of the inference paths:
// index argmax with the tree's tie-breaking convention and the atomic-cursor
// block-claim loop that spreads a batch across workers. It imports only the
// standard library, so the inference engines (internal/core,
// internal/forest) and every consumer of a classification distribution —
// evaluation, the wire encoder, shadow comparison and the commands — share
// one copy.
package par

import (
	"sync"
	"sync/atomic"
)

// Argmax returns the index of the largest value, lowest index winning ties —
// the prediction convention of Tree.Predict, shared by every consumer that
// holds a classification distribution. It panics on an empty slice.
//
//udt:hotpath
func Argmax(xs []float64) int {
	best, bestP := 0, xs[0]
	for i, x := range xs {
		if x > bestP {
			best, bestP = i, x
		}
	}
	return best
}

// BatchGrain is the number of items a worker claims at a time: large enough
// to amortise the atomic counter, small enough to balance skewed per-item
// costs. Both batch inference engines use it as their block size.
const BatchGrain = 64

// ForEach applies fn to every index in [0, n). With workers <= 1 the calls
// run serially on the caller's goroutine; otherwise up to workers goroutines
// claim BatchGrain-sized blocks off an atomic cursor until the range is
// exhausted. Each goroutine obtains its per-worker state once from setup and
// releases it through teardown, so pooled scratch is fetched once per worker
// rather than once per item. fn must be safe to call concurrently for
// distinct indices.
//
//udt:hotpath
func ForEach[S any](n, workers int, setup func() S, fn func(i int, s S), teardown func(S)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := setup()
		for i := 0; i < n; i++ {
			fn(i, s)
		}
		teardown(s)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			s := setup()
			defer teardown(s)
			for {
				hi := int(cursor.Add(BatchGrain))
				lo := hi - BatchGrain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i, s)
				}
			}
		}()
	}
	wg.Wait()
}
