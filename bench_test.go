// Benchmarks: one testing.B benchmark per figure/table of the paper's
// evaluation. Each benchmark measures the figure's core operation at a
// fixed reproduction-scale density and reports the paper's metric
// (pages/op, bytes, etc.) via b.ReportMetric alongside wall time.
//
// The full density sweeps behind every figure are produced by
// cmd/flatbench (see README.md, "Running the benchmarks"); these
// benchmarks are the repeatable single-point versions:
//
//	go test -bench=. -benchmem
package flat_test

import (
	"fmt"
	"sync"
	"testing"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/neuro"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// benchDensity is the fixed element count for the single-point
// benchmarks; cmd/flatbench sweeps 50k-450k.
const benchDensity = 60000

// benchCapacity matches bench.DefaultConfig().NodeCapacity: 16
// entries/node preserves the paper's tree heights at the 1/1000
// reproduction scale (see bench.Config).
const benchCapacity = 16

type fixture struct {
	model   *neuro.Model
	flat    *core.Index
	trees   map[rtree.Strategy]*rtree.Tree
	sn, lss []geom.MBR
	points  []geom.Vec3
}

var (
	fixOnce sync.Once
	fix     *fixture
)

// getFixture builds the shared model and indexes once for all benchmarks.
func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		side := 28.5
		m := neuro.Generate(neuro.Config{
			Seed:           1,
			TargetElements: benchDensity,
			Volume:         geom.Box(geom.V(0, 0, 0), geom.V(side, side, side)),
		})
		f := &fixture{
			model: m,
			trees: make(map[rtree.Strategy]*rtree.Tree),
		}
		cp := append([]geom.Element(nil), m.Elements...)
		ix, err := core.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp, core.Options{
			World: m.Volume, PageCapacity: benchCapacity, SeedFanout: benchCapacity,
		})
		if err != nil {
			panic(err)
		}
		f.flat = ix
		for _, s := range []rtree.Strategy{rtree.Hilbert, rtree.STR, rtree.PR} {
			cp := append([]geom.Element(nil), m.Elements...)
			tree, err := rtree.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp, s, m.Volume, rtree.Config{
				LeafCapacity: benchCapacity, InternalCapacity: benchCapacity,
			})
			if err != nil {
				panic(err)
			}
			f.trees[s] = tree
		}
		f.sn = datagen.Queries(datagen.QuerySpec{
			Count: 100, World: m.Volume, VolumeFraction: 5e-6, Seed: 101,
		})
		f.lss = datagen.Queries(datagen.QuerySpec{
			Count: 100, World: m.Volume, VolumeFraction: 5e-3, Seed: 102,
		})
		f.points = datagen.Points(100, m.Volume, 103)
		fix = f
	})
	return fix
}

// reportReads runs one cold query workload per iteration on an R-tree
// and reports pages/op.
func benchRTreeWorkload(b *testing.B, s rtree.Strategy, queries []geom.MBR) {
	f := getFixture(b)
	tree := f.trees[s]
	var reads storage.Stats
	var results uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		n, err := tree.Tally(&reads).CountQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		results += uint64(n)
	}
	b.ReportMetric(float64(reads.TotalReads())/float64(b.N), "pages/op")
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

func benchFLATWorkload(b *testing.B, queries []geom.MBR) {
	f := getFixture(b)
	var reads, results uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		n, st, err := f.flat.CountQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		reads += st.TotalReads
		results += uint64(n)
	}
	b.ReportMetric(float64(reads)/float64(b.N), "pages/op")
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkFig02PointQuery measures cold point queries on the three
// R-tree variants: the paper's overlap indicator (Figure 2).
func BenchmarkFig02PointQuery(b *testing.B) {
	f := getFixture(b)
	for _, s := range []rtree.Strategy{rtree.Hilbert, rtree.STR, rtree.PR} {
		b.Run(s.String(), func(b *testing.B) {
			tree := f.trees[s]
			var reads storage.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Tally(&reads).PointQuery(f.points[i%len(f.points)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(reads.TotalReads())/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkFig03SNPerResultPR measures the SN workload on the PR-tree
// (Figure 3: page reads per result element).
func BenchmarkFig03SNPerResultPR(b *testing.B) {
	benchRTreeWorkload(b, rtree.PR, getFixture(b).sn)
}

// BenchmarkFig04LSSBytes measures the LSS workload on the three R-trees
// (Figure 4: data retrieved; pages/op x 4096 = bytes).
func BenchmarkFig04LSSBytes(b *testing.B) {
	f := getFixture(b)
	for _, s := range []rtree.Strategy{rtree.Hilbert, rtree.STR, rtree.PR} {
		b.Run(s.String(), func(b *testing.B) { benchRTreeWorkload(b, s, f.lss) })
	}
}

// BenchmarkFig10Build measures index construction (Figure 10) for all
// four indexes.
func BenchmarkFig10Build(b *testing.B) {
	f := getFixture(b)
	els := f.model.Elements
	for _, s := range []rtree.Strategy{rtree.Hilbert, rtree.STR, rtree.PR} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp := append([]geom.Element(nil), els...)
				pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
				if _, err := rtree.Build(pool, cp, s, f.model.Volume, rtree.Config{
					LeafCapacity: benchCapacity, InternalCapacity: benchCapacity,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("FLAT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := append([]geom.Element(nil), els...)
			pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
			if _, err := core.Build(pool, cp, core.Options{
				World: f.model.Volume, PageCapacity: benchCapacity, SeedFanout: benchCapacity,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig11IndexSize reports the on-disk footprint of FLAT vs the
// PR-tree (Figure 11); the timed operation is a no-op size probe.
func BenchmarkFig11IndexSize(b *testing.B) {
	f := getFixture(b)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.flat.SizeBytes() + f.trees[rtree.PR].SizeBytes()
	}
	_ = sink
	b.ReportMetric(float64(f.flat.SizeBytes()), "flat-bytes")
	b.ReportMetric(float64(f.trees[rtree.PR].SizeBytes()), "pr-bytes")
}

// snBench and lssBench run one figure's workload per index as
// sub-benchmarks (Figures 12/13/15 and 16/17/19 share the access
// pattern; reads and time are both reported).
func benchUseCase(b *testing.B, queries []geom.MBR) {
	b.Run("FLAT", func(b *testing.B) { benchFLATWorkload(b, queries) })
	f := getFixture(b)
	for _, s := range []rtree.Strategy{rtree.PR, rtree.STR, rtree.Hilbert} {
		b.Run(s.String(), func(b *testing.B) { benchRTreeWorkload(b, s, queries) })
	}
	_ = f
}

// BenchmarkFig12SNPageReads covers Figures 12, 13 and 15: the SN
// micro-benchmark on all four indexes (total reads, time, per-result).
func BenchmarkFig12SNPageReads(b *testing.B) { benchUseCase(b, getFixture(b).sn) }

// BenchmarkFig16LSSPageReads covers Figures 16, 17 and 19: the LSS
// micro-benchmark on all four indexes.
func BenchmarkFig16LSSPageReads(b *testing.B) { benchUseCase(b, getFixture(b).lss) }

// BenchmarkFig14SNBreakdown measures the SN workload on FLAT and
// reports the Figure 14 read breakdown.
func BenchmarkFig14SNBreakdown(b *testing.B) {
	f := getFixture(b)
	var seed, meta, obj uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.sn[i%len(f.sn)]
		_, st, err := f.flat.CountQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		seed += st.SeedReads
		meta += st.MetadataReads
		obj += st.ObjectReads
	}
	b.ReportMetric(float64(seed)/float64(b.N), "seed-pages/op")
	b.ReportMetric(float64(meta)/float64(b.N), "meta-pages/op")
	b.ReportMetric(float64(obj)/float64(b.N), "object-pages/op")
}

// BenchmarkFig18LSSBreakdown is the LSS variant of Figure 18's
// breakdown, on the PR-tree (non-leaf vs leaf).
func BenchmarkFig18LSSBreakdown(b *testing.B) {
	f := getFixture(b)
	tree := f.trees[rtree.PR]
	var reads storage.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.lss[i%len(f.lss)]
		if _, err := tree.Tally(&reads).CountQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reads.Reads[storage.CatRTreeInternal])/float64(b.N), "nonleaf-pages/op")
	b.ReportMetric(float64(reads.Reads[storage.CatRTreeLeaf])/float64(b.N), "leaf-pages/op")
}

// BenchmarkFig20PointerDist measures the neighbor-analysis pass
// (Figure 20): building FLAT and extracting the pointer histogram.
func BenchmarkFig20PointerDist(b *testing.B) {
	f := getFixture(b)
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := f.flat.NeighborHistogram()
		if err != nil {
			b.Fatal(err)
		}
		sink += len(h)
	}
	_ = sink
	reportAvgNeighbors(b, f.flat)
}

// BenchmarkFig21PartitionSize measures a FLAT build over the uniform
// Section VII-E data set and reports partition volume vs pointers
// (Figure 21).
func BenchmarkFig21PartitionSize(b *testing.B) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(2000, 2000, 2000))
	els := datagen.UniformBoxes(datagen.UniformSpec{N: 50000, World: world, ElementVolume: 18, Seed: 300})
	b.ResetTimer()
	var ix *core.Index
	for i := 0; i < b.N; i++ {
		cp := append([]geom.Element(nil), els...)
		pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
		var err error
		ix, err = core.Build(pool, cp, core.Options{World: world})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAvgNeighbors(b, ix)
}

func reportAvgNeighbors(b *testing.B, ix *core.Index) {
	avg, err := ix.AvgNeighbors()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(avg, "avg-neighbors")
}

// BenchmarkFig22OtherBuild measures FLAT vs PR-tree construction over a
// Section VIII stand-in data set (the dark-matter snapshot).
func BenchmarkFig22OtherBuild(b *testing.B) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(1000, 1000, 1000))
	els := datagen.Plummer(datagen.PlummerSpec{N: 84000, World: world, Clusters: 10, Seed: 1})
	b.Run("FLAT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := append([]geom.Element(nil), els...)
			pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
			if _, err := core.Build(pool, cp, core.Options{World: world}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PR-Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := append([]geom.Element(nil), els...)
			pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
			if _, err := rtree.Build(pool, cp, rtree.PR, world, rtree.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig23OtherQuery measures small-volume queries on the
// dark-matter stand-in, FLAT vs PR-tree (Figure 23).
func BenchmarkFig23OtherQuery(b *testing.B) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(1000, 1000, 1000))
	els := datagen.Plummer(datagen.PlummerSpec{N: 84000, World: world, Clusters: 10, Seed: 1})
	queries := datagen.Queries(datagen.QuerySpec{Count: 100, World: world, VolumeFraction: 5e-6, Seed: 400})

	cp := append([]geom.Element(nil), els...)
	fpool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	ix, err := core.Build(fpool, cp, core.Options{World: world})
	if err != nil {
		b.Fatal(err)
	}
	ppool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	tree, err := rtree.Build(ppool, els, rtree.PR, world, rtree.Config{})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("FLAT", func(b *testing.B) {
		var reads uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := ix.CountQuery(queries[i%len(queries)])
			if err != nil {
				b.Fatal(err)
			}
			reads += st.TotalReads
		}
		b.ReportMetric(float64(reads)/float64(b.N), "pages/op")
	})
	b.Run("PR-Tree", func(b *testing.B) {
		var reads storage.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tree.Tally(&reads).CountQuery(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(reads.TotalReads())/float64(b.N), "pages/op")
	})
}

// BenchmarkThroughputWorkers measures aggregate query throughput at
// increasing worker counts — the concurrent-serving axis beyond the
// paper's single-threaded methodology. Each worker replays its share of
// the LSS workload on the one index; every query counts its own cold
// reads, so per-query page reads are identical at every worker count and
// the speedup comes purely from overlapping independent queries.
// ops/sec here is queries/sec.
func BenchmarkThroughputWorkers(b *testing.B) {
	f := getFixture(b)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < b.N; i += workers {
						if _, _, err := f.flat.CountQuery(f.lss[i%len(f.lss)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkRangeQueryAllocs measures per-query heap allocations in the
// steady state: the seed/crawl scratch (BFS queue, dedup maps) is recycled
// through a sync.Pool, so steady-state queries should allocate only
// their result slices.
func BenchmarkRangeQueryAllocs(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.flat.RangeQuery(f.sn[i%len(f.sn)]); err != nil {
			b.Fatal(err)
		}
	}
}
