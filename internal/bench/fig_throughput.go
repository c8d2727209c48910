package bench

import (
	"fmt"
	"sync"
	"time"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/storage"
)

// throughput measures aggregate query throughput (queries/sec) of the
// FLAT index under a concurrent workload — the serving axis that the
// paper's single-threaded methodology leaves open but its workload
// profile (read-mostly: models change rarely, range queries dominate)
// demands.
//
// Methodology: the index is built once over the uniform data set of
// Section VII-E; the LSS-sized query workload is then replayed at
// increasing worker counts. Every worker runs the paper's cold-per-query
// protocol against a private page cache over the shared read-only pager
// (core.Index.WithPool), so each query performs exactly the page reads
// it would single-threaded — the table asserts this by reporting the
// aggregate reads per worker count, which must not change — and the
// speedup comes purely from overlapping independent queries.
func (r *Runner) throughput() ([]*Table, error) {
	n := r.analysisN()
	world := analysisWorld(n)
	els := datagen.UniformBoxes(datagen.UniformSpec{
		N: n, World: world, ElementVolume: 18, Seed: r.Cfg.Seed + 300,
	})
	pager := storage.NewMemPager()
	pool := storage.NewConcurrentPool(pager, 0)
	ix, err := core.Build(pool, els, core.Options{
		World: world, PageCapacity: r.Cfg.NodeCapacity, SeedFanout: r.Cfg.NodeCapacity,
	})
	if err != nil {
		return nil, err
	}
	queries := datagen.Queries(datagen.QuerySpec{
		Count:          r.Cfg.Queries,
		World:          world,
		VolumeFraction: r.Cfg.LSSFraction,
		Seed:           r.Cfg.Seed + 100,
	})

	workers := r.Cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 4, 8, 16}
	}
	t := &Table{
		ID:    "throughput",
		Title: fmt.Sprintf("Concurrent query throughput (uniform, n=%d, %d LSS queries)", n, len(queries)),
		Columns: []string{
			"workers", "queries/sec", "speedup", "page reads", "reads/query", "results",
		},
		Note: "cold cache per query; page reads must not vary with workers",
	}
	var base float64
	for _, w := range workers {
		reads, results, elapsed, err := runFLATParallel(ix, pager, queries, w)
		if err != nil {
			return nil, err
		}
		qps := float64(len(queries)) / elapsed.Seconds()
		if base == 0 {
			base = qps
		}
		r.logf("  throughput: %2d workers -> %.0f q/s (%d reads)", w, qps, reads)
		t.AddRow(fi(w), f1(qps), f2(qps/base), fu(reads),
			f2(float64(reads)/float64(len(queries))), fu(results))
	}
	return []*Table{t}, nil
}

// runFLATParallel replays queries against ix on the given number of
// workers, each query cold (paper methodology) against the worker's
// private buffer pool over the shared pager. It returns the aggregate
// page reads, total results and wall time.
func runFLATParallel(ix *core.Index, pager storage.Pager, queries []geom.MBR, workers int) (reads, results uint64, elapsed time.Duration, err error) {
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	views := make([]*core.Index, workers)
	for w := range views {
		views[w] = ix.WithPool(storage.NewConcurrentPool(pager, 0))
	}
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := views[w]
			pool := view.Pool()
			var nResults uint64
			// Static stride partition: the uniform workload's queries are
			// of near-equal cost, so striding keeps workers balanced
			// without a shared cursor.
			for i := w; i < len(queries); i += workers {
				pool.DropFrames()
				n, _, qerr := view.CountQuery(queries[i])
				if qerr != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = qerr
					}
					mu.Unlock()
					return
				}
				nResults += uint64(n)
			}
			mu.Lock()
			results += nResults
			reads += pool.Stats().TotalReads()
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(t0)
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	return reads, results, elapsed, nil
}
