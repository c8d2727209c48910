package core

import (
	"context"

	"flat/internal/geom"
	"flat/internal/storage"
	"flat/internal/str"
)

// Overlay is the staged state a k-NN search draws into its frontier
// beside the indexes: runs of staged inserts, each a str.Tree over
// positions Insert resolves, and the staged deletes.
type Overlay interface {
	Runs() []str.Tree
	// Insert returns the staged insert at position pos of run and its
	// staging stamp (stamps start at 1).
	Insert(run int, pos int32) (el geom.Element, stamp uint64)
	// Deleted reports whether a delete staged after stamp hides el; a
	// bulk element asks with stamp 0.
	Deleted(el geom.Element, stamp uint64) bool
}

// stagedRank is the heap rank of a staged run node and the high bit of
// a staged insert's; see NN.
const stagedRank = 1 << 63

// NN streams the elements of ixs, overlaid with ov (nil: none), to emit
// in nondecreasing distance from p (squared Euclidean distance from p to
// the element's MBR; ties as below). emit returning false stops the
// traversal: a caller wanting the k nearest stops after k emissions, and
// the pages the remaining frontier would have read are never touched.
// Between pops the query checks ctx and aborts with ctx.Err(). The
// returned stats cover exactly the work performed.
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
// exact: seed-tree leaf entries key each metadata page by the union of
// its records' page MBRs, so a node's box distance lower-bounds the
// page-MBR distance of every record beneath it, and the first record to
// surface from the descent heap is the minimizer.
//
// Phase 2 (crawl): one min-heap of mixed work items, each keyed by a
// distance lower bound for whatever it will uncover —
//
//   - records, read only when they pop. S enters at its index item's
//     key; a neighbor at the larger of its discoverer's key and the
//     distance to the box its pointer carries (kind-3 pages), or at its
//     discoverer's key (kind-2 pages carry no box). A popped record
//     whose partition distance exceeds its key goes back in at that
//     distance; otherwise it is expanded: its object page and unseen
//     neighbors are pushed;
//   - object pages keyed by dist(p, page MBR), read when they pop;
//   - elements keyed by their exact distance, emitted when popped.
//
// Why emission order is nondecreasing: let e be unemitted at distance d.
// The partitions' cells tile the data space, so a chain of edge-adjacent
// partitions runs from S to e's along the segment from the nearest point
// of S's page MBR through the clamp of p into the world to the nearest
// point of e's box, each at partition distance ≤ max(dist(p,
// pageMBR(S)), d) = d (phase 1 made S's page distance the global
// minimum). A key only has to satisfy key ≤ d along that chain. Suppose
// some pop has key > d; take the first, so every earlier pop had key
// ≤ d. S entered at its index's key, at most its page distance; a chain
// partition entered at the larger of its discoverer's key (an earlier
// pop) and its box distance (the box contains the partition), and went
// back in at its partition distance: all ≤ d. So the successor of the
// last chain partition expanded (S if none) is still in the heap at key
// ≤ d, or, once e's partition is expanded, e's page or e is: a
// contradiction. An element thus pops exactly when its distance is ≤
// every pending bound; the range crawl's "stop when the k-th candidate
// beats the frontier head" is this condition read off the heap. The
// re-push keeps an unread record, and its page, from being expanded
// before its own partition's bound surfaces.
//
// On kind-3 metadata pages every MBR above is the decoded one, rounded
// outward, so each key stays a lower bound; Build keys the seed tree on
// the decoded page MBRs and derives the neighbor relation from the
// decoded partition MBRs, so phase 1 and the chain hold for the boxes
// the pages store. A neighbor box keeps the top byte of each partition
// cell, which decodes no tighter than the cell: it contains the
// partition.
//
// Several indexes are one more level of the same frontier (Hjaltason &
// Samet's incremental NN: one queue holds every level of the
// hierarchy). Each index enters keyed by dist(p, its bounds) and is
// seeded only when that item pops; its seed is the minimizer within
// that index, so the chain argument holds per index, with the index's
// own item (key ≤ d) standing in until it pops. An index whose bound
// exceeds the last element the consumer takes is never read at all.
//
// The overlay's runs are two more item kinds: a run enters at its root
// box's distance, a popped node pushes its children at their boxes'
// distances, and a staged insert pops at its own, so the chain down a
// run keeps key ≤ d. Deletes filter elements as they pop: a bulk one
// against every staged delete, a staged insert against those staged
// after it. Ties: Push ranks an item by an insertion counter, which
// stays below 1<<63, so bulk elements at one distance surface in
// discovery order. Run nodes go in at rank 1<<63 and staged inserts at
// 1<<63 | stamp. At one distance every bulk item therefore pops first,
// so a staged insert follows each bulk element at its distance (whose
// chain holds a bulk-ranked key ≤ d), as the range path streams staged
// inserts last; and a node pops before the staged inserts at its
// distance, so those beneath it surface in time to be ordered by stamp,
// which is staging order.
func NN(ctx context.Context, ixs []*Index, ov Overlay, p geom.Vec3, emit func(geom.Element, float64) bool) (QueryStats, error) {
	var st QueryStats
	sc := getScratch()
	defer sc.release()
	// The query's own tally, as in Query.
	local := &sc.stats

	counted := func(e geom.Element, distSq float64) bool {
		st.Results++
		return emit(e, distSq)
	}
	err := nnCrawl(ctx, ixs, ov, p, counted, &st, sc, local)
	st.SeedReads = local.Reads[storage.CatSeedInternal]
	st.MetadataReads = local.Reads[storage.CatMetadata]
	st.ObjectReads = local.Reads[storage.CatObject]
	st.TotalReads = local.TotalReads()
	return st, err
}

// NN is the package-level NN over this one index.
func (ix *Index) NN(ctx context.Context, p geom.Vec3, emit func(geom.Element, float64) bool) (QueryStats, error) {
	return NN(ctx, []*Index{ix}, nil, p, emit)
}

// nnSeed finds the metadata record whose page MBR is nearest to p via
// an exact best-first descent of the seed tree, and enqueues it into the
// crawl heap at key, the index item's key; an index without records
// enqueues nothing. The descent has a heap of its own: the crawl heap is
// live whenever a second index is seeded.
func (ix *Index) nnSeed(ctx context.Context, p geom.Vec3, src int32, key float64, sc *crawlScratch, local *storage.Stats) error {
	if ix.seedHeight <= 0 {
		return nil
	}
	h := &sc.seedHeap
	h.Reset()
	h.Push(0, crawlItem{kind: itemNode, page: ix.seedRoot, level: int32(ix.seedHeight)})
	for {
		it, _, ok := h.Pop()
		if !ok {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if it.kind == itemRecord {
			// A record at the top of the heap beats every pending node,
			// and nodes lower-bound the records beneath them: this is
			// the global page-MBR-distance minimizer, exactly.
			ix.nnEnqueue(p, src, it.ref, key, nil, &sc.heap, sc)
			return nil
		}
		page, err := ix.pool.ReadInto(it.page, local)
		if err != nil {
			return err
		}
		if it.level > 1 {
			sc.entries, err = decodeSeedNode(page, it.page, sc.entries[:0])
			if err != nil {
				return err
			}
			for _, e := range sc.entries {
				h.Push(e.Box.DistSqToPoint(p), crawlItem{kind: itemNode, page: storage.PageID(e.Ref), level: it.level - 1})
			}
			continue
		}
		count, err := metaPageRecordCount(page)
		if err != nil {
			return err
		}
		for slot := 0; slot < count; slot++ {
			m, err := decodeMetaRecord(page, slot, &ix.metaLayout)
			if err != nil {
				return err
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
func nnCrawl(ctx context.Context, ixs []*Index, ov Overlay, p geom.Vec3, emit func(geom.Element, float64) bool, st *QueryStats, sc *crawlScratch, local *storage.Stats) error {
	h := &sc.heap
	for i, ix := range ixs {
		h.Push(ix.bounds.DistSqToPoint(p), crawlItem{kind: itemIndex, src: int32(i)})
	}
	var runs []str.Tree
	if ov != nil {
		runs = ov.Runs()
	}
	for i := range runs {
		top := runs[i].Top()
		h.PushRanked(runs[i].Levels[top][0].DistSqToPoint(p), stagedRank, crawlItem{kind: itemRun, src: int32(i), level: int32(top)})
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
		var err error
		switch it.kind {
		case itemElement:
			if (ov == nil || !ov.Deleted(it.el, 0)) && !emit(it.el, distSq) {
				return nil
			}
		case itemStaged:
			if el, stamp := ov.Insert(int(it.src), it.node); !ov.Deleted(el, stamp) && !emit(el, distSq) {
				return nil
			}
		case itemRun:
			nnRunNode(ov, &runs[it.src], it, p, h)
		case itemPage:
			st.PagesVisited++
			err = ixs[it.src].nnReadPage(p, it.page, h, sc, local)
		case itemRecord:
			err = ixs[it.src].nnExpand(ctx, p, it, distSq, h, sc, local, st)
		case itemIndex:
			err = ixs[it.src].nnSeed(ctx, p, it.src, distSq, sc, local)
		}
		if err != nil {
			return err
		}
	}
}

// nnEnqueue pushes record ref unread at key, raised to the distance of
// box (a kind-3 neighbor pointer's stored box; nil for none), unless the
// record is already on or through the frontier.
func (ix *Index) nnEnqueue(p geom.Vec3, src int32, ref RecordRef, key float64, box []byte, h *heapFrontier, sc *crawlScratch) {
	if sc.enqueued[ref] {
		return
	}
	sc.enqueued[ref] = true
	if box != nil {
		key = max(key, decodeBox(&ix.quant, box).DistSqToPoint(p))
	}
	h.Push(key, crawlItem{kind: itemRecord, src: src, ref: ref})
}

// nnExpand handles a record popped at key: it reads the record and,
// when its partition lies farther than key, pushes it back at that
// distance. Otherwise it queues the record's object page (once) at the
// page-MBR distance and every neighbor, unread, at key or above.
func (ix *Index) nnExpand(ctx context.Context, p geom.Vec3, it crawlItem, key float64, h *heapFrontier, sc *crawlScratch, local *storage.Stats, st *QueryStats) error {
	page, err := ix.pool.ReadInto(it.ref.Page(), local)
	if err != nil {
		return err
	}
	m, err := decodeMetaRecord(page, it.ref.Slot(), &ix.metaLayout)
	if err != nil {
		return err
	}
	if d := m.PartitionMBR.DistSqToPoint(p); d > key {
		h.Push(d, it)
		return nil
	}
	st.RecordsVisited++
	if !sc.visited[m.ObjectPage] {
		sc.visited[m.ObjectPage] = true
		h.Push(m.PageMBR.DistSqToPoint(p), crawlItem{kind: itemPage, src: it.src, page: m.ObjectPage})
	}
	return ix.eachNeighbor(ctx, m, local, func(n RecordRef, box []byte) error {
		ix.nnEnqueue(p, it.src, n, key, box, h, sc)
		return nil
	})
}

// nnRunNode pushes the children of a popped node of staged run t: nodes
// at their boxes' distances, staged inserts at theirs, each ranked as NN
// describes.
func nnRunNode(ov Overlay, t *str.Tree, it crawlItem, p geom.Vec3, h *heapFrontier) {
	lo, hi := t.Children(int(it.level), int(it.node))
	for c := lo; c < hi; c++ {
		if it.level > 0 {
			h.PushRanked(t.Levels[it.level-1][c].DistSqToPoint(p), stagedRank, crawlItem{kind: itemRun, src: it.src, level: it.level - 1, node: int32(c)})
			continue
		}
		el, stamp := ov.Insert(int(it.src), t.Pos[c])
		h.PushRanked(el.Box.DistSqToPoint(p), stagedRank|stamp, crawlItem{kind: itemStaged, src: it.src, node: t.Pos[c]})
	}
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
