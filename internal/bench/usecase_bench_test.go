package bench

// Go benchmarks over the index set the page-read gate checks: the
// 60 000-element set of QuickConfig (flatbench -quick), replaying the
// queries useCase replays. A per-op figure or a profile taken here reads
// exactly the pages behind the 60k rows of BENCH_fig12.json (SN) and
// BENCH_fig16.json (LSS): at a -benchtime that is a multiple of
// QuickConfig's 40 queries, UseCase's pages/op × 40 is the gated cell.
//
//	go test -run '^$' -bench 'UseCase/LSS/FLAT$' -benchtime 40000x -cpuprofile cpu.out ./internal/bench
//	go test -run '^$' -bench ThroughputWorkers ./internal/bench
//	go test -run '^$' -bench RangeQueryAllocs -benchmem ./internal/bench

import (
	"fmt"
	"sync"
	"testing"

	"flat/internal/geom"
)

// quickDensity is the QuickConfig density the benchmarks read.
const quickDensity = 60000

var (
	quickRunner = NewRunner(QuickConfig())
	quickSet    = sync.OnceValues(func() (*indexSet, error) { return quickRunner.set(quickDensity) })
)

// quickWorkload returns the quick index set and the queries useCase
// replays on it for workload ("SN" or "LSS").
func quickWorkload(b *testing.B, workload string) (*indexSet, []geom.MBR) {
	b.Helper()
	s, err := quickSet()
	if err != nil {
		b.Fatal(err)
	}
	return s, quickRunner.queries(s.world, quickRunner.fraction(workload))
}

// BenchmarkUseCase runs the SN and LSS micro-benchmarks (Figures 12–19)
// on all four indexes, one cold count query per op, through the cold
// runs the figures use; it reports pages/op and results/op.
func BenchmarkUseCase(b *testing.B) {
	for _, workload := range []string{"SN", "LSS"} {
		b.Run(workload, func(b *testing.B) {
			s, queries := quickWorkload(b, workload)
			run := func(name string, cold func([]geom.MBR) (measurement, error)) {
				b.Run(name, func(b *testing.B) {
					var sum measurement
					for i := range b.N {
						j := i % len(queries)
						m, err := cold(queries[j : j+1])
						if err != nil {
							b.Fatal(err)
						}
						sum.Stats.Add(m.Stats)
						sum.Results += m.Results
					}
					b.ReportMetric(float64(sum.Stats.TotalReads())/float64(b.N), "pages/op")
					b.ReportMetric(float64(sum.Results)/float64(b.N), "results/op")
				})
			}
			run("FLAT", func(q []geom.MBR) (measurement, error) { return coldFLAT(s.flat, q) })
			for _, strat := range strategies {
				run(strat.String(), func(q []geom.MBR) (measurement, error) { return coldTree(s.trees[strat], q) })
			}
		})
	}
}

// BenchmarkThroughputWorkers measures aggregate query throughput at
// increasing worker counts — the concurrent-serving axis beyond the
// paper's single-threaded methodology. Each worker replays its share of
// the LSS workload on the one FLAT index; every query counts its own
// cold reads, so per-query page reads are identical at every worker
// count and the speedup comes purely from overlapping independent
// queries. ops/sec here is queries/sec.
func BenchmarkThroughputWorkers(b *testing.B) {
	s, queries := quickWorkload(b, "LSS")
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += workers {
						if _, _, err := s.flat.CountQuery(queries[i%len(queries)]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkRangeQueryAllocs measures per-query heap allocations of an SN
// range query in the steady state: the seed/crawl scratch is recycled
// through a sync.Pool, so a query should allocate little beyond its
// result slice.
func BenchmarkRangeQueryAllocs(b *testing.B) {
	s, queries := quickWorkload(b, "SN")
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, _, err := s.flat.RangeQuery(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
