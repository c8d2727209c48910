package core

import (
	"context"

	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// NN streams the index's elements to emit in nondecreasing distance
// from p (squared Euclidean distance from p to the element's MBR; ties
// broken deterministically by discovery order). emit returning false
// stops the traversal — a caller wanting the k nearest stops after k
// emissions, and the pages the remaining frontier would have read are
// never touched. Between page reads the query checks ctx and aborts
// with ctx.Err() once it is done. The returned stats cover exactly the
// work performed.
//
// The traversal is FLAT's seed+crawl with a best-first frontier instead
// of the range query's FIFO:
//
// Phase 1 (seed): a best-first descent of the seed tree finds the
// metadata record S whose page MBR is globally nearest to p. This is
// exact, not heuristic: seed-tree leaf entries key each metadata page
// by the union of its records' page MBRs, so a node's box distance
// lower-bounds the page-MBR distance of every record beneath it, and
// the first record to surface from the descent heap is the minimizer.
//
// Phase 2 (crawl): one min-heap of mixed work items, each keyed by a
// distance lower bound for whatever it will uncover —
//
//   - record items keyed by dist(p, partition MBR), resolved eagerly:
//     when a popped record's neighbors are expanded, each new
//     neighbor's metadata record is read immediately so it enters the
//     heap at its true partition distance;
//   - page items keyed by dist(p, page MBR) — the object page is read
//     only when the item pops;
//   - element items keyed by their exact distance, emitted when popped.
//
// Why emission order is nondecreasing: page MBR ⊆ partition MBR, so
// element dist ≥ its page's key ≥ its record's key — within one
// partition, work always surfaces bound-first. Across partitions, the
// build's neighbor relation guarantees reachability at low keys: the
// partitions' cells tile the data space, so for any element e at
// distance d there is a chain of edge-adjacent partitions from S to
// e's partition along the segment from the nearest point of S's page
// MBR through the clamp of p into the world to the nearest point of
// e's box, and every partition on that chain has partition distance
// ≤ max(dist(p, pageMBR(S)), d) = d (phase 1 made S's page distance the
// global minimum, which bounds the first hop). Inductively, whenever
// e has not yet been emitted, some item on its chain sits in the heap
// with key ≤ d; a hypothetical first out-of-order pop (an element at
// distance > d popping while e is unemitted) would require that item
// to have been popped already — contradiction. The range crawl's
// "termination when the k-th candidate beats the frontier head" is
// this same condition read off the heap: an element pops exactly when
// its distance is ≤ every pending lower bound.
func (eng *Engine) NN(ctx context.Context, p geom.Vec3, emit func(geom.Element, float64) bool) (QueryStats, error) {
	var st QueryStats
	// Per-query accounting is collected locally via ReadInto, never by
	// diffing the pool's shared counters (see Query).
	var local storage.Stats
	sc := getScratch()
	defer sc.release()

	counted := func(e geom.Element, distSq float64) bool {
		st.Results++
		return emit(e, distSq)
	}
	start, ok, err := eng.nnSeed(ctx, p, sc, &local)
	if err == nil && ok {
		err = eng.nnCrawl(ctx, p, start, counted, &st, sc, &local)
	}
	st.SeedReads = local.Reads[storage.CatSeedInternal]
	st.MetadataReads = local.Reads[storage.CatMetadata]
	st.ObjectReads = local.Reads[storage.CatObject]
	st.TotalReads = local.TotalReads()
	return st, err
}

// nnSeed finds the metadata record whose page MBR is nearest to p via
// an exact best-first descent of the seed tree. ok is false when the
// index holds no records.
func (eng *Engine) nnSeed(ctx context.Context, p geom.Vec3, sc *crawlScratch, local *storage.Stats) (RecordRef, bool, error) {
	if eng.seedHeight <= 0 {
		return 0, false, nil
	}
	h := &sc.heap
	h.reset()
	h.push(crawlItem{kind: itemNode, page: eng.seedRoot, level: eng.seedHeight})
	for {
		it, ok := h.pop()
		if !ok {
			return 0, false, nil
		}
		if err := ctxErr(ctx); err != nil {
			return 0, false, err
		}
		if it.kind == itemRecord {
			// A record at the top of the heap beats every pending node,
			// and nodes lower-bound the records beneath them: this is
			// the global page-MBR-distance minimizer, exactly.
			return it.ref, true, nil
		}
		page, err := eng.pool.ReadInto(it.page, local)
		if err != nil {
			return 0, false, err
		}
		if it.level > 1 {
			_, entries := rtree.DecodeNode(page)
			for _, e := range entries {
				h.push(crawlItem{
					kind:   itemNode,
					page:   storage.PageID(e.Ref),
					level:  it.level - 1,
					distSq: e.Box.DistSqToPoint(p),
				})
			}
			continue
		}
		count, err := metaPageRecordCount(page)
		if err != nil {
			return 0, false, err
		}
		for slot := 0; slot < count; slot++ {
			m, err := decodeMetaRecord(page, slot)
			if err != nil {
				return 0, false, err
			}
			// Skip overflow continuation records; they carry no page.
			if m.ObjectPage == storage.InvalidPage {
				continue
			}
			h.push(crawlItem{
				kind:   itemRecord,
				ref:    makeRef(it.page, slot),
				distSq: m.PageMBR.DistSqToPoint(p),
			})
		}
	}
}

// nnCrawl drains the best-first frontier from the seed record, emitting
// elements in nondecreasing distance (see NN for the ordering proof).
func (eng *Engine) nnCrawl(ctx context.Context, p geom.Vec3, start RecordRef, emit func(geom.Element, float64) bool, st *QueryStats, sc *crawlScratch, local *storage.Stats) error {
	// The seed descent and the crawl share the scratch heap; the crawl
	// keys differently (partition distance, not page distance), so it
	// starts from an empty frontier.
	h := &sc.heap
	h.reset()
	if err := eng.nnEnqueue(p, start, h, sc, local); err != nil {
		return err
	}
	for {
		it, ok := h.pop()
		if !ok {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		switch it.kind {
		case itemElement:
			if !emit(it.el, it.distSq) {
				return nil
			}
		case itemPage:
			st.PagesVisited++
			if err := eng.nnReadPage(p, it.page, h, sc, local); err != nil {
				return err
			}
		case itemRecord:
			st.RecordsVisited++
			if err := eng.nnExpand(ctx, p, it.ref, h, sc, local); err != nil {
				return err
			}
		}
	}
}

// nnEnqueue resolves one record eagerly — reads its metadata page,
// decodes it, and pushes it at its true partition distance — unless it
// is already on or through the frontier. Eager resolution is what the
// ordering proof needs: a record discovered as a neighbor must enter
// the heap at its own lower bound, not its discoverer's.
func (eng *Engine) nnEnqueue(p geom.Vec3, ref RecordRef, h *heapFrontier, sc *crawlScratch, local *storage.Stats) error {
	if sc.enqueued[ref] {
		return nil
	}
	sc.enqueued[ref] = true
	page, err := eng.pool.ReadInto(ref.Page(), local)
	if err != nil {
		return err
	}
	m, err := decodeMetaRecord(page, ref.Slot())
	if err != nil {
		return err
	}
	h.push(crawlItem{
		kind:   itemRecord,
		ref:    ref,
		distSq: m.PartitionMBR.DistSqToPoint(p),
	})
	return nil
}

// nnExpand handles a popped record: queue its object page (once) at the
// page-MBR distance and resolve every neighbor, following the overflow
// chain like the range crawl does.
func (eng *Engine) nnExpand(ctx context.Context, p geom.Vec3, ref RecordRef, h *heapFrontier, sc *crawlScratch, local *storage.Stats) error {
	// Cached since nnEnqueue read it; ReadInto only tallies misses.
	page, err := eng.pool.ReadInto(ref.Page(), local)
	if err != nil {
		return err
	}
	m, err := decodeMetaRecord(page, ref.Slot())
	if err != nil {
		return err
	}
	if !sc.visited[m.ObjectPage] {
		sc.visited[m.ObjectPage] = true
		h.push(crawlItem{
			kind:   itemPage,
			page:   m.ObjectPage,
			distSq: m.PageMBR.DistSqToPoint(p),
		})
	}
	for _, n := range m.Neighbors {
		// Each new neighbor costs a metadata page read to resolve;
		// give cancellation a chance between them.
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := eng.nnEnqueue(p, n, h, sc, local); err != nil {
			return err
		}
	}
	for next := m.Overflow; next != noRef; {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		ovPage, err := eng.pool.ReadInto(next.Page(), local)
		if err != nil {
			return err
		}
		ov, err := decodeMetaRecord(ovPage, next.Slot())
		if err != nil {
			return err
		}
		for _, n := range ov.Neighbors {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := eng.nnEnqueue(p, n, h, sc, local); err != nil {
				return err
			}
		}
		next = ov.Overflow
	}
	return nil
}

// nnReadPage reads one object page and queues its elements at their
// exact distances.
func (eng *Engine) nnReadPage(p geom.Vec3, id storage.PageID, h *heapFrontier, sc *crawlScratch, local *storage.Stats) error {
	page, err := eng.pool.ReadInto(id, local)
	if err != nil {
		return err
	}
	els, err := storage.DecodeObjectPageInto(page, sc.els[:0])
	sc.els = els
	if err != nil {
		return err
	}
	for i := range els {
		h.push(crawlItem{
			kind:   itemElement,
			el:     els[i],
			distSq: els[i].Box.DistSqToPoint(p),
		})
	}
	return nil
}
