// Package par runs index-parallel loops. The evaluation is a matrix of
// independent cells (rounds × evaders × embeddings × models, samples within
// a round, shards within a minibatch); every fan-out over such a matrix goes
// through For, so the worker-count policy and the error contract live in
// one place.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on up to workers goroutines and
// waits for all of them. workers <= 0 means GOMAXPROCS, and the count is
// clamped to n; with one worker fn runs inline on the caller. n <= 0 calls
// nothing.
//
// Every index runs even after a failure, and For returns the error of the
// lowest failing index, so the reported error does not depend on
// scheduling. fn must write only to per-index state or synchronise itself.
// For allocates nothing in proportion to n.
func For(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		first    error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
