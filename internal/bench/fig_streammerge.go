package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/shard"
)

// streamMergeLimit is the per-query result bound of the experiment's
// limited pass: small enough that the consumer stops inside the first
// shard, so the reads it pays are the prefetch window's, not every
// surviving shard's.
const streamMergeLimit = 16

// streamMerge measures the prefetching streaming shard merge against
// the sequential streaming path on the brain model, sweeping shard
// count K and prefetch width P under the broad LSS workload (queries
// overlap most shards — the case sequential streaming leaves the most
// parallelism on the table).
//
// Three things are measured per (K, P): cold page reads of a full
// drain (invariant across P — prefetching overlaps reads, it must not
// add any), warm full-drain throughput (the wall-clock win; bounded by
// GOMAXPROCS, so ≈1× on a single-core container), and cold page reads
// of a drain stopped after streamMergeLimit results (the price of the
// prefetch window under early exit). Emit-order parity with the
// materializing RangeQuery is asserted on every query, not sampled.
func (r *Runner) streamMerge() ([]*Table, error) {
	n := r.Cfg.Densities[len(r.Cfg.Densities)-1]
	m := r.model(n)
	cfgPrefetch := r.Cfg.Prefetch
	if len(cfgPrefetch) == 0 {
		cfgPrefetch = []int{0, 2, 4}
	}
	// The ratio columns ("reads vs seq", "drain speedup") and the
	// full-drain read-invariance assertion are all relative to the
	// sequential pass, so prefetch 0 is always run first even when the
	// requested sweep omits it.
	prefetches := []int{0}
	for _, p := range cfgPrefetch {
		if p != 0 {
			prefetches = append(prefetches, p)
		}
	}
	ks := r.Cfg.Shards
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8}
	}
	queries := datagen.Queries(datagen.QuerySpec{
		Count:          r.Cfg.Queries,
		World:          m.Volume,
		VolumeFraction: r.Cfg.LSSFraction,
		Seed:           r.Cfg.Seed + 100,
	})

	table := &Table{
		ID: "streammerge",
		Title: fmt.Sprintf("Streaming shard merge (brain model, n=%d, %d LSS queries, limit pass stops at %d results)",
			n, len(queries), streamMergeLimit),
		Columns: []string{
			"shards", "prefetch", "cold reads", "reads vs seq",
			"drains/sec", "drain speedup", fmt.Sprintf("limit-%d reads", streamMergeLimit), "limit reads vs full", "results",
		},
		Note: fmt.Sprintf("prefetch 0 is the sequential streaming baseline; emit order is asserted "+
			"element-for-element identical to RangeQuery at every prefetch; full-drain cold reads are asserted "+
			"invariant across prefetch widths; drain speedups are bounded by GOMAXPROCS=%d on this machine "+
			"(page-read columns are machine-independent)", runtime.GOMAXPROCS(0)),
	}

	ctx := context.Background()
	for _, k := range ks {
		els := append([]geom.Element(nil), m.Elements...)
		set, err := shard.Build(els, shard.Config{
			Shards:       k,
			PageCapacity: r.Cfg.NodeCapacity,
			SeedFanout:   r.Cfg.NodeCapacity,
			World:        m.Volume,
		})
		if err != nil {
			return nil, fmt.Errorf("streammerge shards=%d: %w", k, err)
		}

		// RangeQuery — the sequential collect sink — is the order reference.
		ref := make([][]geom.Element, len(queries))
		for i, q := range queries {
			if ref[i], _, err = set.RangeQuery(ctx, q); err != nil {
				set.Close()
				return nil, err
			}
		}

		var seqReads, seqQPS float64
		for _, p := range prefetches {
			opts := shard.StreamOptions{Prefetch: p}

			// Cold full drains: parity on every query, total page reads.
			var coldReads, results uint64
			for i, q := range queries {
				set.DropCache()
				pos, diverged := 0, false
				st, err := set.StreamQuery(ctx, q, opts, func(e geom.Element) bool {
					if pos >= len(ref[i]) || ref[i][pos] != e {
						diverged = true
						return false
					}
					pos++
					return true
				})
				if err != nil {
					set.Close()
					return nil, err
				}
				if diverged || pos != len(ref[i]) {
					set.Close()
					return nil, fmt.Errorf("streammerge shards=%d prefetch=%d query %d: stream diverges from RangeQuery order at element %d (drained %d of %d)",
						k, p, i, pos, pos, len(ref[i]))
				}
				coldReads += st.TotalReads
				results += uint64(pos)
			}
			if p == 0 {
				seqReads = float64(coldReads)
			} else if float64(coldReads) != seqReads {
				set.Close()
				return nil, fmt.Errorf("streammerge shards=%d prefetch=%d: %d cold reads, sequential %d — a full drain must not change the pages read",
					k, p, coldReads, uint64(seqReads))
			}

			// Cold limited drains: the early-exit price of the window.
			var limitReads uint64
			for _, q := range queries {
				set.DropCache()
				seen := 0
				st, err := set.StreamQuery(ctx, q, opts, func(geom.Element) bool {
					seen++
					return seen < streamMergeLimit
				})
				if err != nil {
					set.Close()
					return nil, err
				}
				limitReads += st.TotalReads
			}

			// Warm full-drain throughput.
			const passes = 3
			drain := func() error {
				for _, q := range queries {
					if _, err := set.StreamQuery(ctx, q, opts, func(geom.Element) bool { return true }); err != nil {
						return err
					}
				}
				return nil
			}
			if err := drain(); err != nil { // warm-up
				set.Close()
				return nil, err
			}
			t0 := time.Now()
			for pass := 0; pass < passes; pass++ {
				if err := drain(); err != nil {
					set.Close()
					return nil, err
				}
			}
			elapsed := time.Since(t0)
			qps := float64(passes*len(queries)) / elapsed.Seconds()
			if p == 0 {
				seqQPS = qps
			}
			r.logf("  streammerge shards=%d prefetch=%d: %d cold reads, %d limited reads, %.0f drains/s",
				k, p, coldReads, limitReads, qps)
			table.AddRow(
				fi(k), fi(p),
				fu(coldReads), f2(float64(coldReads)/seqReads),
				f1(qps), f2(qps/seqQPS),
				fu(limitReads), f2(float64(limitReads)/float64(coldReads)),
				fu(results),
			)
		}
		set.Close()
	}
	return []*Table{table}, nil
}
