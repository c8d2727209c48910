package core

import (
	"context"
	"fmt"
	"sync"

	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// QueryStats describes one query execution. Reads is the query's
// page-read tally, the one storage.Pool.ReadInto fills: the
// distinct pages this query read, each counted once, as if the OS cache
// were cleared before the query (the paper's methodology), by page
// category the way the paper's Figure 14/18 breakdowns are
// (Reads.String names them). The counts depend only on the index and
// the query, never on what ran before it or runs beside it.
type QueryStats struct {
	Results        int           // elements in the result set
	RecordsVisited int           // metadata records dequeued by the BFS, or expanded by k-NN
	PagesVisited   int           // distinct object pages read
	Reads          storage.Stats // page reads by category
	TotalReads     uint64        // Reads.TotalReads(), a field only for benchmark/ until ROADMAP item 7
}

// Add accumulates o into s. The sharded index uses it to merge the
// per-shard statistics of one scatter-gathered query; every field is a
// count, so the merge is a plain sum.
func (s *QueryStats) Add(o QueryStats) {
	s.Results += o.Results
	s.RecordsVisited += o.RecordsVisited
	s.PagesVisited += o.PagesVisited
	s.Reads.Add(o.Reads)
	s.TotalReads += o.TotalReads
}

// RangeQuery returns all elements whose MBR intersects q, executing the
// paper's two-phase algorithm: seed then crawl. The result order is the
// BFS visit order and therefore deterministic for a given index. It is
// the collect sink over QueryRuns, the cancellable executor.
func (ix *Index) RangeQuery(q geom.MBR) ([]geom.Element, QueryStats, error) {
	var result []geom.Element
	stats, err := ix.QueryRuns(context.Background(), q, func(run []geom.Element) bool {
		result = append(result, run...)
		return true
	})
	return result, stats, err
}

// CountQuery is RangeQuery without materializing the result elements;
// the page access pattern is identical.
func (ix *Index) CountQuery(q geom.MBR) (int, QueryStats, error) {
	stats, err := ix.QueryRuns(context.Background(), q, func([]geom.Element) bool { return true })
	return stats.Results, stats, err
}

// seedItem is one pending seed-tree node during the seed descent.
type seedItem struct {
	page  storage.PageID
	level int // 1 = metadata page
}

// crawlScratch holds the reusable per-query state: the seed descent
// stack, the crawl's frontier and dedup map, and the page table that
// counts each page once. Allocating these fresh on every query is the
// dominant heap churn on the hot path, so queries borrow a scratch from
// a sync.Pool and return it cleared.
type crawlScratch struct {
	stack    []seedItem
	fifo     fifoFrontier            // range-crawl frontier (BFS order)
	heap     heapFrontier            // best-first frontier (k-NN)
	seedHeap heapFrontier            // k-NN seed descent, run while heap is live
	els      []geom.Element          // object-page decode buffer
	entries  []rtree.NodeEntry       // seed-node decode buffer
	stats    storage.Stats           // the query's own page-read tally
	read     map[storage.PageID]bool // pages tallied into stats
	enqueued map[RecordRef]bool      // records on or through the frontier
	frame    boxFrame                // the frame of the neighbor list eachNeighbor walks
	boxes    boxFilter               // the range crawl's box test
}

var scratchPool = sync.Pool{
	New: func() any {
		return &crawlScratch{read: make(map[storage.PageID]bool), enqueued: make(map[RecordRef]bool)}
	},
}

func getScratch() *crawlScratch { return scratchPool.Get().(*crawlScratch) }

func (sc *crawlScratch) release() {
	clear(sc.read)
	clear(sc.enqueued)
	sc.stack = sc.stack[:0]
	sc.fifo.reset()
	sc.heap.Reset()
	sc.seedHeap.Reset()
	sc.els = sc.els[:0]
	sc.entries = sc.entries[:0]
	sc.stats = storage.Stats{}
	scratchPool.Put(sc)
}

// tally is what a query passes to Pool.ReadInto for page id: its own
// tally the first time it reads the page, nil after. A query thus counts
// each page it reads once — a cold read, as the paper's methodology
// makes it — however often it returns to the page (the seed's object
// page, a metadata page holding several records).
func (sc *crawlScratch) tally(id storage.PageID) *storage.Stats {
	if sc.read[id] {
		return nil
	}
	sc.read[id] = true
	return &sc.stats
}

// report hands the query's page-read tally to st.
func (sc *crawlScratch) report(st *QueryStats) {
	st.Reads, st.TotalReads = sc.stats, sc.stats.TotalReads()
}

// QueryRuns executes the two-phase query as a push stream of runs:
// the elements of each object page the crawl reads that intersect q are
// handed to emit in one call, in BFS order, and emit returning false
// stops the crawl immediately — the pages the remaining BFS frontier
// would have read are never touched, which is what makes result limits
// save I/O rather than just truncate slices. A run is the query's
// scratch, valid only until emit returns; emit may reorder or compact
// it in place. Between page reads the query checks ctx and aborts with
// ctx.Err() once it is done. The returned stats cover exactly the work
// performed, whether the query ran to completion, was stopped by emit,
// or was cancelled; Results counts the elements of every run handed to
// emit.
func (ix *Index) QueryRuns(ctx context.Context, q geom.MBR, emit func([]geom.Element) bool) (QueryStats, error) {
	var st QueryStats
	sc := getScratch()
	defer sc.release()

	sc.boxes.reset(&ix.metaLayout, q)
	seedRef, ok, err := ix.seed(ctx, q, sc)
	if err == nil && ok {
		err = ix.crawl(ctx, q, seedRef, emit, &st, sc)
	}
	sc.report(&st)
	return st, err
}

// Query is QueryRuns one element at a time: emit returning false stops
// the crawl at that element, and Results counts the elements emit saw.
func (ix *Index) Query(ctx context.Context, q geom.MBR, emit func(geom.Element) bool) (QueryStats, error) {
	unsent := 0
	st, err := ix.QueryRuns(ctx, q, func(run []geom.Element) bool {
		for i := range run {
			if !emit(run[i]) {
				unsent = len(run) - i - 1
				return false
			}
		}
		return true
	})
	st.Results -= unsent
	return st, err
}

// ctxErr reports ctx's error once it is done. Queries call it between
// page reads; the non-blocking select costs nanoseconds against a page
// read and makes every blocking phase of a query cancellable.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// seed walks the seed tree depth-first, pruned by q, until it finds a
// metadata record whose object page holds at least one element
// intersecting q (Section V-B.1). It follows one root-to-leaf path at a
// time and stops at the first hit, so its cost is in the order of the
// seed-tree height; only for nearly-empty queries does it inspect
// several leaves before concluding the result is empty.
func (ix *Index) seed(ctx context.Context, q geom.MBR, sc *crawlScratch) (RecordRef, bool, error) {
	sc.stack = append(sc.stack[:0], seedItem{ix.seedRoot, ix.seedHeight})
	for len(sc.stack) > 0 {
		if err := ctxErr(ctx); err != nil {
			return 0, false, err
		}
		it := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		page, err := ix.pool.ReadInto(it.page, sc.tally(it.page))
		if err != nil {
			return 0, false, err
		}
		if it.level > 1 {
			sc.entries, err = decodeSeedNode(page, it.page, sc.entries[:0])
			if err != nil {
				return 0, false, err
			}
			for _, e := range sc.entries {
				if e.Box.Intersects(q) {
					sc.stack = append(sc.stack, seedItem{storage.PageID(e.Ref), it.level - 1})
				}
			}
			continue
		}
		// Metadata page: check each record whose page MBR intersects the
		// query by reading its object page, exactly as the paper's
		// modified R-tree lookup does.
		var mp metaPage
		if err := mp.parse(page); err != nil {
			return 0, false, err
		}
		var m metaRecord
		for slot := 0; slot < mp.count; slot++ {
			// Each hit test below costs an object-page read; give
			// cancellation a chance between them, not just per seed page.
			if err := ctxErr(ctx); err != nil {
				return 0, false, err
			}
			if !mp.pageMeets(slot, &sc.boxes.lim) {
				continue
			}
			if err := mp.record(makeRef(it.page, slot), &ix.metaLayout, &m); err != nil {
				return 0, false, err
			}
			// Skip overflow continuation records; they carry no page.
			if m.ObjectPage == storage.InvalidPage || !m.PageMBR.Intersects(q) {
				continue
			}
			hit, err := ix.objectPageHasHit(m.ObjectPage, q, sc)
			if err != nil {
				return 0, false, err
			}
			if hit {
				return makeRef(it.page, slot), true, nil
			}
		}
	}
	return 0, false, nil
}

func (ix *Index) objectPageHasHit(id storage.PageID, q geom.MBR, sc *crawlScratch) (bool, error) {
	page, err := ix.pool.ReadInto(id, sc.tally(id))
	if err != nil {
		return false, err
	}
	// Object pages filter through the format-aware codec (the format tag
	// is on the page itself), not the R-tree node decoder, so v1 and v2
	// pages — even mixed across shards — read identically here.
	els, err := storage.FilterObjectPageInto(page, q, sc.els[:0])
	sc.els = els
	return len(els) > 0, err
}

// crawl is the paper's Algorithm 2: a search over the neighborhood
// pointers starting from the seed record, in the order the frontier
// dictates — FIFO here, which makes it the paper's breadth-first walk.
// An object page is read only when the record's page MBR intersects the
// query; a record's neighbors are expanded only when its partition MBR
// does, and a neighbor is enqueued only when the box its pointer carries
// does (the paper's pointers are bare). Each record is enqueued at most
// once, and each object page belongs to exactly one record, so each
// object page is read at most once. Each object page's matches go to
// emit as one run (none when it has none); emit returning false stops
// the crawl cleanly (no error); a done ctx aborts it with ctx.Err().
// sc.boxes must be reset to q.
func (ix *Index) crawl(ctx context.Context, q geom.MBR, start RecordRef, emit func([]geom.Element) bool, st *QueryStats, sc *crawlScratch) error {
	// The FIFO frontier replays pushes in order; range-query results
	// and page-read sequences are a regression gate on that order.
	f := &sc.fifo
	f.reset()
	f.push(start)
	sc.enqueued[start] = true
	var (
		m    metaRecord
		mp   metaPage // the header of the page m is on, parsed once per run of records on it
		mpAt = storage.InvalidPage
	)
	for {
		ref, ok := f.pop()
		if !ok {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		page, err := ix.pool.ReadInto(ref.Page(), sc.tally(ref.Page()))
		if err != nil {
			return err
		}
		if ref.Page() != mpAt {
			if err := mp.parse(page); err != nil {
				return err
			}
			mpAt = ref.Page()
		}
		mp.bytes = page
		if err := mp.record(ref, &ix.metaLayout, &m); err != nil {
			return err
		}
		st.RecordsVisited++

		if m.PageMBR.Intersects(q) {
			st.PagesVisited++
			objPage, err := ix.pool.ReadInto(m.ObjectPage, sc.tally(m.ObjectPage))
			if err != nil {
				return err
			}
			els, err := storage.FilterObjectPageInto(objPage, q, sc.els[:0])
			sc.els = els
			if err != nil {
				return err
			}
			if len(els) > 0 {
				st.Results += len(els)
				if !emit(els) {
					return nil
				}
			}
		}
		if m.PartitionMBR.Intersects(q) {
			// A box contains its neighbor's partition MBR, so a box that
			// misses q names a record that, dequeued, would emit nothing
			// and push nothing: dropping it changes neither the result
			// nor its order, only the reads.
			filter := &sc.boxes
			if ix.barePointers {
				filter = nil
			}
			err := ix.eachNeighbor(ctx, ref, &m, sc, filter, func(n RecordRef, _ nbBox) error {
				if !sc.enqueued[n] {
					sc.enqueued[n] = true
					f.push(n)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
}

// eachNeighbor hands visit every neighbor of record m, stored at ref,
// read in place on its page: its inline list, then the chained overflow
// records a giant partition continues its list in — one metadata page
// read (at most) and one ctx check per hop, so a done ctx can stop
// mid-chain however long the chain is. It is the one neighbor walk: the
// range crawl, the k-NN expansion and Records all enumerate neighbors
// through it. A box's frame is sc's, valid until visit returns. With
// filter set, only the neighbors whose boxes meet its query are visited.
// A visit error ends the walk.
func (ix *Index) eachNeighbor(ctx context.Context, ref RecordRef, m *metaRecord, sc *crawlScratch, filter *boxFilter, visit func(n RecordRef, box nbBox) error) error {
	var next metaRecord
	for {
		sc.frame = m.boxFrame()
		var lim *[6]uint16
		if filter != nil {
			lim = filter.pageLimits(ref.Page(), &sc.frame)
		}
		if err := m.eachInline(&ix.metaLayout, &sc.frame, lim, visit); err != nil {
			return err
		}
		if ref = m.Overflow; ref == noRef {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		page, err := ix.pool.ReadInto(ref.Page(), sc.tally(ref.Page()))
		if err != nil {
			return err
		}
		if err := decodeMetaRecord(page, ref, &ix.metaLayout, &next); err != nil {
			return err
		}
		m = &next
	}
}

// CrawlFrom executes the crawl phase from an explicit start record; it
// exists so tests can verify the paper's claim that "the choice of the
// start page affects neither the accuracy nor efficiency of the search".
func (ix *Index) CrawlFrom(q geom.MBR, start RecordRef) ([]geom.Element, error) {
	var result []geom.Element
	var st QueryStats
	sc := getScratch()
	defer sc.release()
	sc.boxes.reset(&ix.metaLayout, q)
	err := ix.crawl(context.Background(), q, start, func(run []geom.Element) bool {
		result = append(result, run...)
		return true
	}, &st, sc)
	return result, err
}

// decodeSeedNode decodes the internal seed-tree node read from page id,
// appending its entries to dst. The bytes come from a shard file, so a
// node that does not decode fails the query that walked into it, under
// the page's id.
func decodeSeedNode(page []byte, id storage.PageID, dst []rtree.NodeEntry) ([]rtree.NodeEntry, error) {
	_, entries, err := rtree.DecodeNodeInto(page, dst)
	if err != nil {
		return dst, fmt.Errorf("core: seed page %d: %w", id, err)
	}
	return entries, nil
}

// boxFilter tests stored neighbor boxes against one range query with
// six small-integer compares instead of a decode. Per metadata page it
// turns the query's world cell limits (storage.Quantizer.CellLimits)
// into limits on the values the page stores (boxFrame.limits), once per
// page a query visits: a box meets the filter exactly when its decoded
// form (boxFrame.box) Intersects the query.
type boxFilter struct {
	lim   [6]uint64 // the query's cell limits
	epoch uint64    // the query's stamp in pages
	start storage.PageID
	pages []pageLimits // by metadata-page ordinal
	spare [6]uint16
}

// pageLimits are one metadata page's value limits, valid while epoch is
// the filter's.
type pageLimits struct {
	epoch uint64
	lim   [6]uint16
}

// reset points the filter at query q on the index with layout l.
func (f *boxFilter) reset(l *metaLayout, q geom.MBR) {
	f.lim = l.quant.CellLimits(q)
	f.epoch++
	f.start = l.metaStart()
	if len(f.pages) < l.metadataPages {
		f.pages = append(f.pages, make([]pageLimits, l.metadataPages-len(f.pages))...)
	}
}

// pageLimits returns the value limits of metadata page at, whose boxes
// count from fr, valid until the next call.
func (f *boxFilter) pageLimits(at storage.PageID, fr *boxFrame) *[6]uint16 {
	i := uint64(at - f.start)
	if i >= uint64(len(f.pages)) { // not in the run reset named
		f.spare = fr.limits(&f.lim)
		return &f.spare
	}
	p := &f.pages[i]
	if p.epoch != f.epoch {
		p.epoch, p.lim = f.epoch, fr.limits(&f.lim)
	}
	return &p.lim
}

// within reports whether box's values are below lim, the limits of its
// page: whether the box intersects the query.
func (box *nbBox) within(lim *[6]uint16) bool {
	v := &box.v
	return uint16(v[0]) < lim[0] && uint16(v[1]) < lim[1] && uint16(v[2]) < lim[2] &&
		uint16(v[3]) < lim[3] && uint16(v[4]) < lim[4] && uint16(v[5]) < lim[5]
}

// Record is one metadata record as Records enumerates it.
type Record struct {
	Ref RecordRef
	// PageMBR and PartitionMBR are as the page stores them: rounded
	// outward to cells, so each contains the exact box Build derived.
	PageMBR, PartitionMBR geom.MBR
	ObjectPage            storage.PageID
	// Neighbors is the full neighbor list, overflow chain spliced in.
	Neighbors []RecordRef
	// NeighborBoxes holds, per neighbor, the decoded box its pointer
	// carries, which contains the neighbor's PartitionMBR.
	NeighborBoxes []geom.MBR
	// SeedKey is the seed-tree key of the record's metadata page: the
	// entry box its parent node holds, or the index world when the
	// metadata page is the root.
	SeedKey geom.MBR
}

// Records enumerates every metadata record in the index in on-disk
// order (a walk of the seed tree down to its metadata pages), calling
// fn with each. Used by invariant tests and the neighbor analyses
// (NeighborHistogram, and through it flat.Index.AvgNeighbors).
func (ix *Index) Records(fn func(Record) error) error {
	type keyed struct {
		seedItem
		key geom.MBR
	}
	stack := []keyed{{seedItem{ix.seedRoot, ix.seedHeight}, ix.world}}
	sc := getScratch()
	defer sc.release()
	//lint:ignore ctxcrawl offline inspect/invariant walk, never on a serving query path
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		page, err := ix.pool.ReadInto(it.page, nil)
		if err != nil {
			return err
		}
		if it.level > 1 {
			entries, err := decodeSeedNode(page, it.page, nil)
			if err != nil {
				return err
			}
			for _, e := range entries {
				stack = append(stack, keyed{seedItem{storage.PageID(e.Ref), it.level - 1}, e.Box})
			}
			continue
		}
		var mp metaPage
		if err := mp.parse(page); err != nil {
			return err
		}
		//lint:ignore ctxcrawl offline inspect/invariant walk, never on a serving query path
		for slot := 0; slot < mp.count; slot++ {
			ref := makeRef(it.page, slot)
			var m metaRecord
			if err := mp.record(ref, &ix.metaLayout, &m); err != nil {
				return err
			}
			if m.ObjectPage == storage.InvalidPage {
				continue // overflow continuation record
			}
			r := Record{Ref: ref, PageMBR: m.PageMBR, PartitionMBR: m.PartitionMBR, ObjectPage: m.ObjectPage, SeedKey: it.key}
			// Collect the full neighbor list across the overflow chain.
			err = ix.eachNeighbor(context.Background(), ref, &m, sc, nil, func(n RecordRef, box nbBox) error {
				r.Neighbors = append(r.Neighbors, n)
				r.NeighborBoxes = append(r.NeighborBoxes, box.fr.box(&ix.quant, box.v))
				return nil
			})
			if err != nil {
				return err
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}
