package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"flat/internal/core"
	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/shard"
	"flat/internal/storage"
)

// pagecodec measures page format v2 (quantized delta-encoded object
// pages) against the original v1 layout on the brain model: on-disk
// density (elements per page, bytes per element), and cold page reads
// under the LSS and SN query workloads. Both indexes are built with
// full pages — the experiment measures page packing, so the
// reproduction-scale capacity override does not apply.
//
// Three claims are enforced, not just reported:
//
//   - v2 packs at least 1.5x the elements per object page;
//   - every query returns element-for-element identical results on v1
//     and v2 — unsharded and sharded (K=4) alike;
//   - over the LSS workload, v2 reads strictly fewer pages than v1
//     under the same cold-per-query methodology.
func (r *Runner) pagecodec() ([]*Table, error) {
	n := r.Cfg.Densities[len(r.Cfg.Densities)-1]
	m := r.model(n)

	type variant struct {
		format storage.PageFormat
		ix     *core.Index
		build  time.Duration
	}
	formats := []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2}
	variants := make([]*variant, len(formats))
	for i, f := range formats {
		els := append([]geom.Element(nil), m.Elements...)
		t0 := time.Now()
		ix, err := core.Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), els,
			core.Options{World: m.Volume, PageFormat: f})
		if err != nil {
			return nil, fmt.Errorf("pagecodec build %s: %w", f, err)
		}
		variants[i] = &variant{format: f, ix: ix, build: time.Since(t0)}
		r.logf("  built FLAT/%s: %d object pages, %.1f MiB", f, ix.NumPartitions(),
			float64(ix.SizeBytes())/(1<<20))
	}
	v1, v2 := variants[0], variants[1]
	pageRatio := float64(v1.ix.NumPartitions()) / float64(v2.ix.NumPartitions())
	if pageRatio < 1.5 {
		return nil, fmt.Errorf("pagecodec: v2 object pages %d vs v1 %d (%.2fx) — packing below the 1.5x floor",
			v2.ix.NumPartitions(), v1.ix.NumPartitions(), pageRatio)
	}

	workloads := []struct {
		name     string
		fraction float64
	}{
		{"LSS", r.Cfg.LSSFraction},
		{"SN", r.Cfg.SNFraction},
	}
	table := &Table{
		ID: "pagecodec",
		Title: fmt.Sprintf("Object-page codec v1 vs v2 (brain model, n=%d, full pages, %d queries per workload)",
			n, r.Cfg.Queries),
		Columns: []string{
			"format", "workload", "object pages", "elems/page", "bytes/elem",
			"size MiB", "build ms", "page reads", "reads/query", "object reads", "results",
		},
		Timed: []string{"build ms"},
		Note: fmt.Sprintf("cold per query (frames dropped); results asserted element-for-element identical "+
			"across formats, unsharded and sharded K=4; LSS page reads asserted strictly lower on v2; "+
			"elements-per-page ratio %.2fx (floor 1.5x); bytes/elem counts the whole index footprint", pageRatio),
	}

	for _, wl := range workloads {
		queries := datagen.Queries(datagen.QuerySpec{
			Count:          r.Cfg.Queries,
			World:          m.Volume,
			VolumeFraction: wl.fraction,
			Seed:           r.Cfg.Seed + 100,
		})
		ids := make([][][]uint64, len(variants)) // per variant, per query, sorted IDs
		reads := make([]uint64, len(variants))
		objReads := make([]uint64, len(variants))
		results := make([]uint64, len(variants))
		for vi, v := range variants {
			ids[vi] = make([][]uint64, len(queries))
			for qi, q := range queries {
				v.ix.Pool().DropFrames()
				els, st, err := v.ix.RangeQuery(q)
				if err != nil {
					return nil, err
				}
				ids[vi][qi] = sortedElementIDs(els)
				reads[vi] += st.TotalReads
				objReads[vi] += st.ObjectReads
				results[vi] += uint64(len(els))
			}
		}
		for qi := range queries {
			if !equalIDLists(ids[0][qi], ids[1][qi]) {
				return nil, fmt.Errorf("pagecodec %s query %d: v1 returned %d elements, v2 %d — formats disagree",
					wl.name, qi, len(ids[0][qi]), len(ids[1][qi]))
			}
		}
		if wl.name == "LSS" && reads[1] >= reads[0] {
			return nil, fmt.Errorf("pagecodec LSS: v2 read %d pages, v1 %d — compression saved nothing",
				reads[1], reads[0])
		}
		for vi, v := range variants {
			obj, meta, seed := v.ix.PageCounts()
			totalPages := obj + meta + seed
			table.AddRow(
				v.format.String(), wl.name,
				fi(obj), f1(float64(v.ix.Len())/float64(obj)),
				f1(float64(totalPages)*storage.PageSize/float64(v.ix.Len())),
				f2(float64(v.ix.SizeBytes())/(1<<20)),
				f1(float64(v.build.Microseconds())/1000),
				fu(reads[vi]), f2(float64(reads[vi])/float64(len(queries))),
				fu(objReads[vi]), fu(results[vi]),
			)
		}
		r.logf("  %s: v1 %d reads, v2 %d reads (%.2fx fewer)", wl.name,
			reads[0], reads[1], float64(reads[0])/float64(reads[1]))
	}

	// Sharded parity: the codec must be invisible through the sharded
	// executor too.
	queries := datagen.Queries(datagen.QuerySpec{
		Count:          r.Cfg.Queries,
		World:          m.Volume,
		VolumeFraction: r.Cfg.LSSFraction,
		Seed:           r.Cfg.Seed + 100,
	})
	sets := make([]*shard.Set, len(formats))
	for i, f := range formats {
		els := append([]geom.Element(nil), m.Elements...)
		set, err := shard.Build(els, shard.Config{Shards: 4, World: m.Volume, PageFormat: f})
		if err != nil {
			return nil, fmt.Errorf("pagecodec sharded build %s: %w", f, err)
		}
		sets[i] = set
	}
	defer func() {
		for _, s := range sets {
			s.Close()
		}
	}()
	for qi, q := range queries {
		var got [][]uint64
		for _, set := range sets {
			els, err := collectSet(context.Background(), set, q)
			if err != nil {
				return nil, err
			}
			got = append(got, sortedElementIDs(els))
		}
		if !equalIDLists(got[0], got[1]) {
			return nil, fmt.Errorf("pagecodec sharded query %d: v1 returned %d elements, v2 %d — formats disagree",
				qi, len(got[0]), len(got[1]))
		}
	}
	r.logf("  sharded K=4 parity: %d queries identical across formats", len(queries))
	return []*Table{table}, nil
}

func sortedElementIDs(els []geom.Element) []uint64 {
	ids := make([]uint64, len(els))
	for i, e := range els {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func equalIDLists(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
