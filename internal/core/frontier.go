package core

import (
	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// The crawl phase is a loop that pops work items off a frontier, reads
// the pages they name, and pushes the work those pages uncover. Which
// *order* items surface is the only difference between FLAT's query
// kinds — range queries drain a fifoFrontier (the paper's BFS over
// neighbor pointers), k-NN drains a heapFrontier, a min-heap on
// point-to-MBR distance (best-first; the heap itself is the one the
// R-tree's own NN walk uses, rtree.DistHeap). The two are concrete
// types, each used directly by its one crawl loop; neither is safe for
// concurrent use, a frontier lives inside one query's scratch.

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
// crawl mixes the other kinds in one heap so that no page — no record,
// no whole index, no staged run — is read until its distance lower
// bound actually surfaces (see nn.go for why that ordering is what
// makes the emission order provably nondecreasing).
type crawlItemKind uint8

const (
	itemIndex   crawlItemKind = iota // index not yet seeded, keyed by its bounds
	itemNode                         // seed-tree node page (NN seed descent only)
	itemRecord                       // metadata record, read when it pops
	itemPage                         // object page to read and decode
	itemElement                      // decoded element ready to emit
	itemRun                          // node of a staged run, keyed by its box
	itemStaged                       // staged insert, keyed by its box
)

// crawlItem is one pending unit of best-first traversal work; the heap
// keys it by a squared point-to-MBR distance lower bound for whatever
// the item will uncover. Which payload field is meaningful depends on
// kind.
type crawlItem struct {
	kind  crawlItemKind
	src   int32          // the index the item reads through; itemRun: the staged run
	level int32          // itemNode: seed-tree level (1 = metadata); itemRun: run level
	node  int32          // itemRun: node of level; itemStaged: position
	ref   RecordRef      // itemRecord
	page  storage.PageID // itemNode, itemPage
	el    geom.Element   // itemElement
}

// heapFrontier pops the pending item with the smallest distance bound
// first (ties broken by insertion order, so traversal is deterministic
// for a given index). Its slice is retained across queries via the
// scratch pool like the FIFO's.
type heapFrontier = rtree.DistHeap[crawlItem]
