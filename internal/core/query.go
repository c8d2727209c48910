package core

import (
	"context"
	"fmt"
	"sync"

	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// QueryStats describes one range-query execution. Page-read counts are
// the cache misses this query itself caused, tallied through
// storage.Pool.ReadInto into a Stats the query owns (the only page-read
// accounting there is: the pool keeps no counters), broken down by page
// category the way the paper's Figure 14/18 breakdowns are.
type QueryStats struct {
	Results        int    // elements in the result set
	RecordsVisited int    // metadata records dequeued by the BFS, or expanded by k-NN
	PagesVisited   int    // distinct object pages read
	SeedReads      uint64 // seed-tree internal node page reads
	MetadataReads  uint64 // metadata (seed leaf) page reads
	ObjectReads    uint64 // object page reads
	TotalReads     uint64
}

// Add accumulates o into s. The sharded index uses it to merge the
// per-shard statistics of one scatter-gathered query; every field is a
// count, so the merge is a plain sum.
func (s *QueryStats) Add(o QueryStats) {
	s.Results += o.Results
	s.RecordsVisited += o.RecordsVisited
	s.PagesVisited += o.PagesVisited
	s.SeedReads += o.SeedReads
	s.MetadataReads += o.MetadataReads
	s.ObjectReads += o.ObjectReads
	s.TotalReads += o.TotalReads
}

// RangeQuery returns all elements whose MBR intersects q, executing the
// paper's two-phase algorithm: seed then crawl. The result order is the
// BFS visit order and therefore deterministic for a given index. It is
// the collect sink over Query, the cancellable executor.
func (ix *Index) RangeQuery(q geom.MBR) ([]geom.Element, QueryStats, error) {
	var result []geom.Element
	stats, err := ix.Query(context.Background(), q, func(e geom.Element) bool {
		result = append(result, e)
		return true
	})
	return result, stats, err
}

// CountQuery is RangeQuery without materializing the result elements;
// the page access pattern is identical.
func (ix *Index) CountQuery(q geom.MBR) (int, QueryStats, error) {
	n := 0
	stats, err := ix.Query(context.Background(), q, func(geom.Element) bool { n++; return true })
	return n, stats, err
}

// seedItem is one pending seed-tree node during the seed descent.
type seedItem struct {
	page  storage.PageID
	level int // 1 = metadata page
}

// crawlScratch holds the reusable per-query state: the seed descent
// stack plus the crawl's frontier and dedup maps. Allocating these maps
// fresh on every query is the dominant heap churn on the hot path, so
// queries borrow a scratch from a sync.Pool and return it cleared.
type crawlScratch struct {
	stack    []seedItem
	fifo     fifoFrontier      // range-crawl frontier (BFS order)
	heap     heapFrontier      // best-first frontier (k-NN)
	seedHeap heapFrontier      // k-NN seed descent, run while heap is live
	els      []geom.Element    // object-page decode buffer
	entries  []rtree.NodeEntry // seed-node decode buffer
	stats    storage.Stats     // the query's own page-read tally
	enqueued map[RecordRef]bool
	visited  map[storage.PageID]bool
}

var scratchPool = sync.Pool{
	New: func() any {
		return &crawlScratch{
			enqueued: make(map[RecordRef]bool),
			visited:  make(map[storage.PageID]bool),
		}
	},
}

func getScratch() *crawlScratch { return scratchPool.Get().(*crawlScratch) }

func (sc *crawlScratch) release() {
	clear(sc.enqueued)
	clear(sc.visited)
	sc.stack = sc.stack[:0]
	sc.fifo.reset()
	sc.heap.Reset()
	sc.seedHeap.Reset()
	sc.els = sc.els[:0]
	sc.entries = sc.entries[:0]
	sc.stats = storage.Stats{}
	scratchPool.Put(sc)
}

// Query executes the two-phase query as a push stream: every element
// intersecting q is handed to emit in BFS order, and emit returning
// false stops the crawl immediately — the pages the remaining BFS
// frontier would have read are never touched, which is what makes
// result limits save I/O rather than just truncate slices. Between page
// reads the query checks ctx and aborts with ctx.Err() once it is done.
// The returned stats cover exactly the work performed, whether the
// query ran to completion, was stopped by emit, or was cancelled.
func (ix *Index) Query(ctx context.Context, q geom.MBR, emit func(geom.Element) bool) (QueryStats, error) {
	var st QueryStats
	sc := getScratch()
	defer sc.release()
	// Every page read below goes through ReadInto with this tally, so the
	// stats are this query's misses however many queries run beside it.
	local := &sc.stats

	counted := func(e geom.Element) bool {
		st.Results++
		return emit(e)
	}
	seedRef, ok, err := ix.seed(ctx, q, sc, local)
	if err == nil && ok {
		err = ix.crawl(ctx, q, seedRef, counted, &st, sc, local)
	}
	st.SeedReads = local.Reads[storage.CatSeedInternal]
	st.MetadataReads = local.Reads[storage.CatMetadata]
	st.ObjectReads = local.Reads[storage.CatObject]
	st.TotalReads = local.TotalReads()
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
func (ix *Index) seed(ctx context.Context, q geom.MBR, sc *crawlScratch, local *storage.Stats) (RecordRef, bool, error) {
	sc.stack = append(sc.stack[:0], seedItem{ix.seedRoot, ix.seedHeight})
	for len(sc.stack) > 0 {
		if err := ctxErr(ctx); err != nil {
			return 0, false, err
		}
		it := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
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
				if e.Box.Intersects(q) {
					sc.stack = append(sc.stack, seedItem{storage.PageID(e.Ref), it.level - 1})
				}
			}
			continue
		}
		// Metadata page: check each record whose page MBR intersects the
		// query by reading its object page, exactly as the paper's
		// modified R-tree lookup does.
		count, err := metaPageRecordCount(page)
		if err != nil {
			return 0, false, err
		}
		for slot := 0; slot < count; slot++ {
			// Each hit test below costs an object-page read; give
			// cancellation a chance between them, not just per seed page.
			if err := ctxErr(ctx); err != nil {
				return 0, false, err
			}
			m, err := decodeMetaRecord(page, slot, &ix.metaLayout)
			if err != nil {
				return 0, false, err
			}
			// Skip overflow continuation records; they carry no page.
			if m.ObjectPage == storage.InvalidPage || !m.PageMBR.Intersects(q) {
				continue
			}
			hit, err := ix.objectPageHasHit(m.ObjectPage, q, sc, local)
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

func (ix *Index) objectPageHasHit(id storage.PageID, q geom.MBR, sc *crawlScratch, local *storage.Stats) (bool, error) {
	page, err := ix.pool.ReadInto(id, local)
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
// does (kind-3 pages; the paper's pointers are bare). Each record and
// each object page is visited at most once. emit returning false stops
// the crawl cleanly (no error); a done ctx aborts it with ctx.Err().
func (ix *Index) crawl(ctx context.Context, q geom.MBR, start RecordRef, emit func(geom.Element) bool, st *QueryStats, sc *crawlScratch, local *storage.Stats) error {
	boxes := newBoxFilter(&ix.quant, q)
	// The FIFO frontier replays pushes in order; range-query results
	// and page-read sequences are a regression gate on that order.
	f := &sc.fifo
	f.reset()
	f.push(start)
	sc.enqueued[start] = true
	defer func() { st.PagesVisited = len(sc.visited) }()

	for {
		ref, ok := f.pop()
		if !ok {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		page, err := ix.pool.ReadInto(ref.Page(), local)
		if err != nil {
			return err
		}
		m, err := decodeMetaRecord(page, ref.Slot(), &ix.metaLayout)
		if err != nil {
			return err
		}
		st.RecordsVisited++

		if m.PageMBR.Intersects(q) && !sc.visited[m.ObjectPage] {
			sc.visited[m.ObjectPage] = true
			objPage, err := ix.pool.ReadInto(m.ObjectPage, local)
			if err != nil {
				return err
			}
			els, err := storage.FilterObjectPageInto(objPage, q, sc.els[:0])
			sc.els = els
			if err != nil {
				return err
			}
			for i := range els {
				if !emit(els[i]) {
					return nil
				}
			}
		}
		if m.PartitionMBR.Intersects(q) {
			err := ix.eachNeighbor(ctx, m, local, func(n RecordRef, box []byte) error {
				// A box contains its neighbor's partition MBR, so a box
				// that misses q names a record that, dequeued, would
				// emit nothing and push nothing: dropping it changes
				// neither the result nor its order, only the reads.
				if box != nil && !ix.barePointers && !boxes.meets(box) {
					return nil
				}
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

// eachNeighbor hands visit every neighbor of record m, read in place on
// its page: its inline list, then the chained overflow records a giant
// partition continues its list in — one metadata page read (at most)
// and one ctx check per hop, so a done ctx can stop mid-chain however
// long the chain is. It is the one neighbor walk: the range crawl, the
// k-NN expansion and Records all enumerate neighbors through it. box is
// the six stored bytes of the neighbor's box on a kind-3 page and nil
// on a kind-2 page. A visit error ends the walk.
func (ix *Index) eachNeighbor(ctx context.Context, m metaRecord, local *storage.Stats, visit func(n RecordRef, box []byte) error) error {
	for {
		for i := 0; i < m.Neighbors; i++ {
			n, box, err := m.neighbor(i, &ix.metaLayout)
			if err != nil {
				return err
			}
			if err := visit(n, box); err != nil {
				return err
			}
		}
		next := m.Overflow
		if next == noRef {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		page, err := ix.pool.ReadInto(next.Page(), local)
		if err != nil {
			return err
		}
		if m, err = decodeMetaRecord(page, next.Slot(), &ix.metaLayout); err != nil {
			return err
		}
	}
}

// CrawlFrom executes the crawl phase from an explicit start record; it
// exists so tests can verify the paper's claim that "the choice of the
// start page affects neither the accuracy nor efficiency of the search".
func (ix *Index) CrawlFrom(q geom.MBR, start RecordRef) ([]geom.Element, error) {
	var result []geom.Element
	var st QueryStats
	var local storage.Stats
	sc := getScratch()
	defer sc.release()
	err := ix.crawl(context.Background(), q, start, func(e geom.Element) bool {
		result = append(result, e)
		return true
	}, &st, sc, &local)
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

// boxFilter tests a stored neighbor box against one query with six
// byte compares instead of a decode. Byte b stands for cell b<<24, so
// it meets its test exactly when that cell is below the quantizer's
// cell limit (storage.Quantizer.CellLimits), that is when b is below
// the limit rounded up to whole bytes: a box meets the filter exactly
// when its decoded form (decodeBox) Intersects q.
type boxFilter struct{ lim [boxSize]int }

func newBoxFilter(quant *storage.Quantizer, q geom.MBR) boxFilter {
	var f boxFilter
	for i, l := range quant.CellLimits(q) {
		f.lim[i] = int((l + 1<<24 - 1) >> 24)
	}
	return f
}

// meets reports whether the box stored in b intersects the query.
func (f *boxFilter) meets(b []byte) bool {
	return int(b[0]) < f.lim[0] && int(b[1]) < f.lim[1] && int(b[2]) < f.lim[2] &&
		int(b[3]) < f.lim[3] && int(b[4]) < f.lim[4] && int(b[5]) < f.lim[5]
}

// Record is one metadata record as Records enumerates it.
type Record struct {
	Ref RecordRef
	// PageMBR and PartitionMBR are as the page stores them: on a kind-3
	// page rounded outward to the world's cells, so each contains the
	// exact box Build derived.
	PageMBR, PartitionMBR geom.MBR
	ObjectPage            storage.PageID
	// Neighbors is the full neighbor list, overflow chain spliced in.
	Neighbors []RecordRef
	// NeighborBoxes holds, per neighbor, the decoded box its pointer
	// carries; nil on a kind-2 page, whose pointers are bare.
	NeighborBoxes []geom.MBR
	// SeedKey is the seed-tree key of the record's metadata page: the
	// entry box its parent node holds, or the index world when the
	// metadata page is the root.
	SeedKey geom.MBR
}

// Records enumerates every metadata record in the index in on-disk
// order (a walk of the seed tree down to its metadata pages), calling
// fn with each. Used by invariant tests, the public Records/AvgNeighbors
// inspection surface and the neighbor analyses (NeighborHistogram).
func (ix *Index) Records(fn func(Record) error) error {
	type keyed struct {
		seedItem
		key geom.MBR
	}
	stack := []keyed{{seedItem{ix.seedRoot, ix.seedHeight}, ix.world}}
	//lint:ignore ctxcrawl offline inspect/invariant walk, never on a serving query path
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		page, err := ix.pool.Read(it.page)
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
		count, err := metaPageRecordCount(page)
		if err != nil {
			return err
		}
		//lint:ignore ctxcrawl offline inspect/invariant walk, never on a serving query path
		for slot := 0; slot < count; slot++ {
			m, err := decodeMetaRecord(page, slot, &ix.metaLayout)
			if err != nil {
				return err
			}
			if m.ObjectPage == storage.InvalidPage {
				continue // overflow continuation record
			}
			r := Record{Ref: makeRef(it.page, slot), PageMBR: m.PageMBR, PartitionMBR: m.PartitionMBR, ObjectPage: m.ObjectPage, SeedKey: it.key}
			// Collect the full neighbor list across the overflow chain.
			err = ix.eachNeighbor(context.Background(), m, nil, func(n RecordRef, box []byte) error {
				r.Neighbors = append(r.Neighbors, n)
				if box != nil {
					r.NeighborBoxes = append(r.NeighborBoxes, decodeBox(&ix.quant, box))
				}
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
