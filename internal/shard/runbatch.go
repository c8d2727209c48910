package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunBatch fans n independent work items over a bounded worker pool
// (workers <= 0: GOMAXPROCS); it is the one worker pool of the index,
// behind the per-shard bulkloads (bulkloadShards) and the public BatchRangeQuery and
// BatchCountQuery. Workers pull the next item from an atomic cursor, so
// an expensive item does not stall the rest of the batch behind a static
// partition.
//
// Error propagation is deterministic: every claimed item runs to
// completion, failures are stamped with their item index, and the error
// of the lowest-indexed failure is returned. (The cursor hands indexes
// out in order, so when item i fails every item below i has already
// been claimed and will report its own failure if it has one — which
// one wins never depends on goroutine scheduling.) A done ctx stops
// workers from claiming further items; if nothing else failed first the
// batch returns ctx.Err().
func RunBatch(ctx context.Context, n, workers int, run func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return ctx.Err()
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		failed atomic.Bool

		mu       sync.Mutex
		firstIdx = -1
		firstErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
