package core

import (
	"flat/internal/geom"
	"flat/internal/storage"
)

// The crawl phase is a loop that pops work items off a frontier, reads
// the pages they name, and pushes the work those pages uncover. Which
// *order* items surface is the only difference between FLAT's query
// kinds — range queries drain a fifoFrontier (the paper's BFS over
// neighbor pointers), k-NN drains a heapFrontier, a min-heap on
// point-to-MBR distance (best-first). The two are concrete types, each
// used directly by its one crawl loop; neither is safe for concurrent
// use, a frontier lives inside one query's scratch.

// fifoFrontier pops items in push order: the breadth-first traversal
// of the paper's Algorithm 2. Range queries depend on this order being
// exactly the visit order of the historical queue-and-head-index loop
// (result order and page-read order are part of the engine's tested
// contract), so the implementation is that loop's queue: pops advance
// a head index over the same backing slice the pushes append to, and
// the slice survives into the next query via the query-scratch pool.
type fifoFrontier struct {
	queue []RecordRef
	head  int
}

func (f *fifoFrontier) push(r RecordRef) { f.queue = append(f.queue, r) }

func (f *fifoFrontier) pop() (RecordRef, bool) {
	if f.head >= len(f.queue) {
		return 0, false
	}
	r := f.queue[f.head]
	f.head++
	return r, true
}

func (f *fifoFrontier) reset() {
	f.queue = f.queue[:0]
	f.head = 0
}

// crawlItemKind distinguishes the units of work a best-first traversal
// keeps in flight. The FIFO crawl only ever handles records; the k-NN
// crawl mixes all four kinds in one heap so that no page is read until
// its distance lower bound actually surfaces (see nn.go for why that
// ordering is what makes the emission order provably nondecreasing).
type crawlItemKind uint8

const (
	itemNode    crawlItemKind = iota // seed-tree node page (NN seed phase only)
	itemRecord                       // metadata record to expand
	itemPage                         // object page to read and decode
	itemElement                      // decoded element ready to emit
)

// crawlItem is one pending unit of best-first traversal work, keyed by
// a squared point-to-MBR distance lower bound for whatever the item
// will uncover. Which payload field is meaningful depends on kind.
type crawlItem struct {
	distSq float64 // priority: squared lower-bound distance to the query point
	seq    uint64  // insertion order; heap tie-break keeps traversal deterministic
	kind   crawlItemKind
	level  int            // itemNode: seed-tree level (1 = metadata)
	ref    RecordRef      // itemRecord
	page   storage.PageID // itemNode, itemPage
	el     geom.Element   // itemElement
}

// heapFrontier pops the pending item with the smallest distSq first
// (ties broken by insertion order, so traversal is deterministic for a
// given index). It is a plain binary min-heap over a slice; the slice
// is retained across queries via the scratch pool like the FIFO's.
type heapFrontier struct {
	items []crawlItem
	seq   uint64
}

func (h *heapFrontier) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.distSq != b.distSq {
		return a.distSq < b.distSq
	}
	return a.seq < b.seq
}

func (h *heapFrontier) push(it crawlItem) {
	it.seq = h.seq
	h.seq++
	h.items = append(h.items, it)
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *heapFrontier) pop() (crawlItem, bool) {
	if len(h.items) == 0 {
		return crawlItem{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < last && h.less(left, smallest) {
			smallest = left
		}
		if right < last && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top, true
}

func (h *heapFrontier) reset() {
	h.items = h.items[:0]
	h.seq = 0
}
