package bench

import (
	"context"
	"fmt"
	"time"

	"flat/internal/core"
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
// Four claims are enforced, not just reported:
//
//   - every object page but the last is full: each format writes
//     ceil(n/capacity) object pages, capacity being its page's;
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
		full   string // "pages = ceil(n/capacity)", for the note
	}
	lo, hi := m.Elements[0].ID, m.Elements[0].ID
	for _, e := range m.Elements {
		lo, hi = min(lo, e.ID), max(hi, e.ID)
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
		capacity := storage.ObjectPageCapacityForSpan(f, hi-lo)
		want := (ix.Len() + capacity - 1) / capacity
		if obj, _, _ := ix.PageCounts(); obj != want {
			return nil, fmt.Errorf("pagecodec %s: %d object pages for %d elements, want ceil(%d/%d) = %d — pages left part-filled",
				f, obj, ix.Len(), ix.Len(), capacity, want)
		}
		variants[i] = &variant{format: f, ix: ix, build: time.Since(t0),
			full: fmt.Sprintf("%s %d = ceil(%d/%d)", f, want, ix.Len(), capacity)}
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
		Note: fmt.Sprintf("cold per query (each query counts each page it reads once); results asserted element-for-element identical "+
			"across formats, unsharded and sharded K=4; LSS page reads asserted strictly lower on v2; "+
			"object pages asserted full but the last (%s, %s); "+
			"elements-per-page ratio %.2fx (floor 1.5x); bytes/elem counts the whole index footprint",
			v1.full, v2.full, pageRatio),
	}

	for _, wl := range workloads {
		queries := r.queries(m.Volume, wl.fraction)
		reads := make([]uint64, len(variants))
		objReads := make([]uint64, len(variants))
		results := make([]uint64, len(variants))
		answers := make([][]geom.Element, len(variants))
		for qi, q := range queries {
			for vi, v := range variants {
				els, st, err := v.ix.RangeQuery(q)
				if err != nil {
					return nil, err
				}
				answers[vi] = els
				reads[vi] += st.TotalReads
				objReads[vi] += st.ObjectReads
				results[vi] += uint64(len(els))
			}
			if err := sameAnswer(wl.name, qi, answers); err != nil {
				return nil, err
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
	queries := r.queries(m.Volume, r.Cfg.LSSFraction)
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
	answers := make([][]geom.Element, len(sets))
	for qi, q := range queries {
		for i, set := range sets {
			els, err := collectSet(context.Background(), set, q)
			if err != nil {
				return nil, err
			}
			answers[i] = els
		}
		if err := sameAnswer("sharded", qi, answers); err != nil {
			return nil, err
		}
	}
	r.logf("  sharded K=4 parity: %d queries identical across formats", len(queries))
	return []*Table{table}, nil
}

// sameAnswer returns an error naming query qi of workload what unless
// the v1 and v2 answers (by format) hold as many elements with the same
// ids, in any order (idDigest).
func sameAnswer(what string, qi int, answers [][]geom.Element) error {
	v1, v2 := answers[0], answers[1]
	if len(v1) != len(v2) || idDigest(v1) != idDigest(v2) {
		return fmt.Errorf("pagecodec %s query %d: v1 returned %d elements, v2 %d — formats disagree",
			what, qi, len(v1), len(v2))
	}
	return nil
}
