package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/shard"
	"flat/internal/storage"
)

// shardsExperiment measures the sharded FLAT index against the
// unsharded one on the brain model at K = 1, 2, 4, 8: build time
// (per-shard bulkloads run in parallel), cold page reads, and warm
// throughput of the sequential shard-order executor — once under the
// broad LSS workload (every query overlaps most shards: the stress
// case) and once under the selective SN workload (the directory prunes
// to ~1 shard: the routing win case).
//
// Two invariants are enforced, not just reported:
//
//   - every K returns exactly the unsharded result count on every query;
//   - K=1 performs exactly the unsharded index's page reads, query by
//     query (the sharded apparatus must degenerate to the identity).
//
// For K > 1 cold reads may differ slightly — each shard runs its own
// seed descent, and shard-local partitioning changes page boundaries —
// so the tables report the ratio for inspection rather than pinning it.
func (r *Runner) shardsExperiment() ([]*Table, error) {
	n := r.Cfg.Densities[len(r.Cfg.Densities)-1]
	m := r.model(n)
	workloads := []struct {
		name     string
		fraction float64
	}{
		{"LSS", r.Cfg.LSSFraction},
		{"SN", r.Cfg.SNFraction},
	}

	// Unsharded reference: build time, then per-workload per-query cold
	// reads and result counts.
	refEls := append([]geom.Element(nil), m.Elements...)
	t0 := time.Now()
	ref, err := core.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), refEls, core.Options{
		World: m.Volume, PageCapacity: r.Cfg.NodeCapacity, SeedFanout: r.Cfg.NodeCapacity,
	})
	if err != nil {
		return nil, err
	}
	refBuild := time.Since(t0)

	type workloadRef struct {
		queries []geom.MBR
		reads   []uint64
		counts  []int
	}
	refs := make([]workloadRef, len(workloads))
	for w, wl := range workloads {
		queries := datagen.Queries(datagen.QuerySpec{
			Count:          r.Cfg.Queries,
			World:          m.Volume,
			VolumeFraction: wl.fraction,
			Seed:           r.Cfg.Seed + 100,
		})
		wr := workloadRef{
			queries: queries,
			reads:   make([]uint64, len(queries)),
			counts:  make([]int, len(queries)),
		}
		for i, q := range queries {
			ref.Pool().DropFrames()
			cnt, st, err := ref.CountQuery(q)
			if err != nil {
				return nil, err
			}
			wr.reads[i], wr.counts[i] = st.TotalReads, cnt
		}
		refs[w] = wr
	}

	ks := r.Cfg.Shards
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8}
	}
	sweepHasK1 := false
	for _, k := range ks {
		sweepHasK1 = sweepHasK1 || k == 1
	}
	// The read-ratio baseline is the first swept K; only claim the K=1
	// parity assertion when the sweep actually exercised it.
	parity := "K=1 absent from the sweep, unsharded read parity not checked; "
	if sweepHasK1 {
		parity = "K=1 read counts are asserted identical to unsharded; "
	}
	note := fmt.Sprintf("build speedup vs the unsharded bulkload (%v); cold page reads (dropped cache per query); "+
		"warm queries/sec over the sequential shard-order executor (a count sink over Set.StreamQuery); "+parity+
		"the parallel build speedup is bounded by GOMAXPROCS=%d on this machine", refBuild.Round(time.Millisecond), runtime.GOMAXPROCS(0))
	tables := make([]*Table, len(workloads))
	for w, wl := range workloads {
		tables[w] = &Table{
			ID: "shards",
			Title: fmt.Sprintf("Sharded FLAT scaling (brain model, n=%d, %d %s queries)",
				n, len(refs[w].queries), wl.name),
			Columns: []string{
				"shards", "elements", "build ms", "build speedup", "avg scatter width",
				"page reads", fmt.Sprintf("reads vs K=%d", ks[0]), "queries/sec", "qps speedup", "ns/query", "results",
			},
			Timed: []string{"build ms", "build speedup", "queries/sec", "qps speedup", "ns/query"},
			Note:  note,
		}
	}

	countAll := func(geom.Element) bool { return true }
	baseQPS := make([]float64, len(workloads))
	k1Reads := make([]uint64, len(workloads))
	for _, k := range ks {
		els := append([]geom.Element(nil), m.Elements...)
		b0 := time.Now()
		set, err := shard.Build(els, shard.Config{
			Shards:       k,
			PageCapacity: r.Cfg.NodeCapacity,
			SeedFanout:   r.Cfg.NodeCapacity,
			World:        m.Volume,
		})
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", k, err)
		}
		buildTime := time.Since(b0)

		for w := range workloads {
			wr := refs[w]

			// Cold replay: parity with the unsharded index, plus the mean
			// number of shards surviving the directory pruning.
			var coldReads, results uint64
			scatterWidth := 0
			for i, q := range wr.queries {
				set.DropCache()
				st, err := set.StreamQuery(context.Background(), q, shard.StreamOptions{}, countAll)
				if err != nil {
					return nil, err
				}
				cnt := st.Results
				if cnt != wr.counts[i] {
					return nil, fmt.Errorf("shards=%d query %d: %d results, unsharded %d", k, i, cnt, wr.counts[i])
				}
				if k == 1 && st.TotalReads != wr.reads[i] {
					return nil, fmt.Errorf("shards=1 query %d: %d page reads, unsharded %d — K=1 parity broken",
						i, st.TotalReads, wr.reads[i])
				}
				coldReads += st.TotalReads
				results += uint64(cnt)
				scatterWidth += len(set.Prune(q))
			}
			if k == ks[0] {
				k1Reads[w] = coldReads
			}

			// Warm throughput: one warm-up pass, then timed passes.
			const passes = 3
			for _, q := range wr.queries {
				if _, err := set.StreamQuery(context.Background(), q, shard.StreamOptions{}, countAll); err != nil {
					return nil, err
				}
			}
			w0 := time.Now()
			for p := 0; p < passes; p++ {
				for _, q := range wr.queries {
					if _, err := set.StreamQuery(context.Background(), q, shard.StreamOptions{}, countAll); err != nil {
						return nil, err
					}
				}
			}
			elapsed := time.Since(w0)
			nq := passes * len(wr.queries)
			qps := float64(nq) / elapsed.Seconds()
			if baseQPS[w] == 0 {
				baseQPS[w] = qps
			}
			r.logf("  shards=%d %s: build %v, %d cold reads, %.0f q/s",
				k, workloads[w].name, buildTime.Round(time.Millisecond), coldReads, qps)
			tables[w].AddRow(
				fi(set.NumShards()), fi(set.Len()),
				f1(float64(buildTime.Microseconds())/1000), f2(refBuild.Seconds()/buildTime.Seconds()),
				f2(float64(scatterWidth)/float64(len(wr.queries))),
				fu(coldReads), f2(float64(coldReads)/float64(k1Reads[w])),
				f1(qps), f2(qps/baseQPS[w]),
				fi(int(elapsed.Nanoseconds()/int64(nq))), fu(results),
			)
		}
		set.Close()
	}
	return tables, nil
}
