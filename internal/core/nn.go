package core

import (
	"context"

	"flat/internal/geom"
	"flat/internal/storage"
)

// NN streams the elements of ixs to emit in nondecreasing distance
// from p (squared Euclidean distance from p to the element's MBR; ties
// broken deterministically by discovery order). emit returning false
// stops the traversal — a caller wanting the k nearest stops after k
// emissions, and the pages the remaining frontier would have read are
// never touched. Between page reads the query checks ctx and aborts
// with ctx.Err() once it is done. The returned stats cover exactly the
// work performed.
//
// The indexes must share one page-id space (the shards of a Set do:
// every page id carries its shard's tag), because one pair of dedup
// maps serves the whole search. Index.NN is the one-index case.
//
// The traversal is FLAT's seed+crawl with a best-first frontier instead
// of the range query's FIFO. Take one index first:
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
//
// On kind-3 metadata pages every MBR above is the decoded one, rounded
// outward: rounding only widens a box, so each key stays a lower bound,
// and Build keys the seed tree on the decoded page MBRs and derives the
// neighbor relation from the decoded partition MBRs, so phase 1's
// minimizer and the chain hold as stated for the boxes the pages store.
//
// Several indexes are one more level of the same frontier (Hjaltason &
// Samet's incremental NN: one queue holds every level of the
// hierarchy). Each index enters the heap as an item keyed by
// dist(p, its bounds), which lower-bounds every element beneath it, and
// is seeded only when that item pops; its seed is still the exact
// page-distance minimizer *within that index*, so the chain argument
// holds per index with "S" read as that index's seed. While e is
// unemitted, either its index's item (key ≤ d) or an item on its chain
// (key ≤ d) is in the heap, so the contradiction above goes through
// unchanged — and an index whose bound exceeds the last element the
// consumer takes is never read at all.
func NN(ctx context.Context, ixs []*Index, p geom.Vec3, emit func(geom.Element, float64) bool) (QueryStats, error) {
	var st QueryStats
	sc := getScratch()
	defer sc.release()
	// The query's own tally, as in Query.
	local := &sc.stats

	counted := func(e geom.Element, distSq float64) bool {
		st.Results++
		return emit(e, distSq)
	}
	err := nnCrawl(ctx, ixs, p, counted, &st, sc, local)
	st.SeedReads = local.Reads[storage.CatSeedInternal]
	st.MetadataReads = local.Reads[storage.CatMetadata]
	st.ObjectReads = local.Reads[storage.CatObject]
	st.TotalReads = local.TotalReads()
	return st, err
}

// NN is the package-level NN over this one index.
func (ix *Index) NN(ctx context.Context, p geom.Vec3, emit func(geom.Element, float64) bool) (QueryStats, error) {
	return NN(ctx, []*Index{ix}, p, emit)
}

// nnSeed finds the metadata record whose page MBR is nearest to p via
// an exact best-first descent of the seed tree. ok is false when the
// index holds no records. The descent has a heap of its own: the crawl
// heap is live whenever a second index is seeded.
func (ix *Index) nnSeed(ctx context.Context, p geom.Vec3, sc *crawlScratch, local *storage.Stats) (RecordRef, bool, error) {
	if ix.seedHeight <= 0 {
		return 0, false, nil
	}
	h := &sc.seedHeap
	h.Reset()
	h.Push(0, crawlItem{kind: itemNode, page: ix.seedRoot, level: ix.seedHeight})
	for {
		it, _, ok := h.Pop()
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
		page, err := ix.pool.ReadInto(it.page, local)
		if err != nil {
			return 0, false, err
		}
		if it.level > 1 {
			sc.entries, err = decodeSeedNode(page, it.page, sc.entries[:0])
			if err != nil {
				return 0, false, err
			}
			for _, e := range sc.entries {
				h.Push(e.Box.DistSqToPoint(p), crawlItem{
					kind:  itemNode,
					page:  storage.PageID(e.Ref),
					level: it.level - 1,
				})
			}
			continue
		}
		count, err := metaPageRecordCount(page)
		if err != nil {
			return 0, false, err
		}
		for slot := 0; slot < count; slot++ {
			m, err := decodeMetaRecord(page, slot, &ix.metaLayout)
			if err != nil {
				return 0, false, err
			}
			// Skip overflow continuation records; they carry no page.
			if m.ObjectPage == storage.InvalidPage {
				continue
			}
			h.Push(m.PageMBR.DistSqToPoint(p), crawlItem{kind: itemRecord, ref: makeRef(it.page, slot)})
		}
	}
}

// nnCrawl drains the best-first frontier, seeding each index when its
// item surfaces and emitting elements in nondecreasing distance (see NN
// for the ordering proof).
func nnCrawl(ctx context.Context, ixs []*Index, p geom.Vec3, emit func(geom.Element, float64) bool, st *QueryStats, sc *crawlScratch, local *storage.Stats) error {
	h := &sc.heap
	for i, ix := range ixs {
		h.Push(ix.bounds.DistSqToPoint(p), crawlItem{kind: itemIndex, src: int32(i)})
	}
	for {
		it, distSq, ok := h.Pop()
		if !ok {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		// Every read goes through the pool of the index the item came
		// from: a caller may hand in views over pools of its own.
		ix := ixs[it.src]
		switch it.kind {
		case itemElement:
			if !emit(it.el, distSq) {
				return nil
			}
		case itemPage:
			st.PagesVisited++
			if err := ix.nnReadPage(p, it.page, h, sc, local); err != nil {
				return err
			}
		case itemRecord:
			st.RecordsVisited++
			if err := ix.nnExpand(ctx, p, it, h, sc, local); err != nil {
				return err
			}
		case itemIndex:
			start, ok, err := ix.nnSeed(ctx, p, sc, local)
			if err == nil && ok {
				err = ix.nnEnqueue(p, it.src, start, h, sc, local)
			}
			if err != nil {
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
func (ix *Index) nnEnqueue(p geom.Vec3, src int32, ref RecordRef, h *heapFrontier, sc *crawlScratch, local *storage.Stats) error {
	if sc.enqueued[ref] {
		return nil
	}
	sc.enqueued[ref] = true
	page, err := ix.pool.ReadInto(ref.Page(), local)
	if err != nil {
		return err
	}
	m, err := decodeMetaRecord(page, ref.Slot(), &ix.metaLayout)
	if err != nil {
		return err
	}
	h.Push(m.PartitionMBR.DistSqToPoint(p), crawlItem{kind: itemRecord, src: src, ref: ref})
	return nil
}

// nnExpand handles a popped record: queue its object page (once) at the
// page-MBR distance and resolve every neighbor.
func (ix *Index) nnExpand(ctx context.Context, p geom.Vec3, it crawlItem, h *heapFrontier, sc *crawlScratch, local *storage.Stats) error {
	// Cached since nnEnqueue read it; ReadInto only tallies misses.
	page, err := ix.pool.ReadInto(it.ref.Page(), local)
	if err != nil {
		return err
	}
	m, err := decodeMetaRecord(page, it.ref.Slot(), &ix.metaLayout)
	if err != nil {
		return err
	}
	if !sc.visited[m.ObjectPage] {
		sc.visited[m.ObjectPage] = true
		h.Push(m.PageMBR.DistSqToPoint(p), crawlItem{kind: itemPage, src: it.src, page: m.ObjectPage})
	}
	return ix.eachNeighbor(ctx, m, local, func(n RecordRef, _ []byte) error {
		// Each new neighbor costs a metadata page read to resolve;
		// give cancellation a chance between them.
		if err := ctxErr(ctx); err != nil {
			return err
		}
		return ix.nnEnqueue(p, it.src, n, h, sc, local)
	})
}

// nnReadPage reads one object page and queues its elements at their
// exact distances.
func (ix *Index) nnReadPage(p geom.Vec3, id storage.PageID, h *heapFrontier, sc *crawlScratch, local *storage.Stats) error {
	page, err := ix.pool.ReadInto(id, local)
	if err != nil {
		return err
	}
	els, err := storage.DecodeObjectPageInto(page, sc.els[:0])
	sc.els = els
	if err != nil {
		return err
	}
	for i := range els {
		h.Push(els[i].Box.DistSqToPoint(p), crawlItem{kind: itemElement, el: els[i]})
	}
	return nil
}
