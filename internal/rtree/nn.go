package rtree

import (
	"flat/internal/geom"
	"flat/internal/storage"
)

// DistHeap is a plain binary min-heap of best-first work items keyed
// by a squared-distance lower bound, ties broken by a rank: the
// insertion order for Push, so a traversal is deterministic, or the
// caller's rank for PushRanked. It is the one priority queue of the
// repository: this package's NN walk and core's k-NN frontier both
// drain it. The zero value is an empty heap; Reset keeps the backing
// slice for the next traversal.
type DistHeap[T any] struct {
	items []distItem[T]
	seq   uint64
}

type distItem[T any] struct {
	distSq float64
	rank   uint64
	v      T
}

func (h *DistHeap[T]) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.distSq != b.distSq {
		return a.distSq < b.distSq
	}
	return a.rank < b.rank
}

// Push adds v at priority distSq, ranked by insertion order. The
// insertion counter stays far below 1<<63, so an item PushRanked at a
// rank of 1<<63 or more pops after every Push at the same distance.
func (h *DistHeap[T]) Push(distSq float64, v T) {
	h.PushRanked(distSq, h.seq, v)
	h.seq++
}

// PushRanked adds v at priority distSq with rank in place of the
// insertion counter: among equal distances the lower rank pops first.
func (h *DistHeap[T]) PushRanked(distSq float64, rank uint64, v T) {
	h.items = append(h.items, distItem[T]{distSq: distSq, rank: rank, v: v})
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the item with the smallest distSq (the
// lowest rank among equals); ok is false on an empty heap.
func (h *DistHeap[T]) Pop() (v T, distSq float64, ok bool) {
	if len(h.items) == 0 {
		return v, 0, false
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
	return top.v, top.distSq, true
}

// Reset empties the heap and restarts the insertion order.
func (h *DistHeap[T]) Reset() {
	h.items = h.items[:0]
	h.seq = 0
}

// nnItem is one pending unit of the tree's best-first traversal: either
// a node page awaiting a read or a leaf entry awaiting its visit. Its
// heap key is the squared distance from the query point to its box (a
// lower bound on everything beneath a node, exact for an entry).
type nnItem struct {
	entry bool
	id    storage.PageID // !entry
	el    geom.Element   // entry
}

// NN visits the tree's elements in nondecreasing squared distance from
// p (ties broken by discovery order), stopping early when visit returns
// false. This is the classic best-first R-tree nearest-neighbor
// traversal: a min-heap mixes node pages keyed by their box's distance
// lower bound with leaf entries keyed exactly, so no node is read until
// its bound actually surfaces and an entry is visited only once nothing
// pending could beat it. It is a baseline: the served benchmark's
// per-layer probes time it on an insertion-built tree.
func (t *Tree) NN(p geom.Vec3, visit func(el geom.Element, distSq float64) bool) error {
	if t.root == storage.InvalidPage || t.count == 0 {
		return nil
	}
	var h DistHeap[nnItem]
	h.items = make([]distItem[nnItem], 0, 64)
	h.Push(0, nnItem{id: t.root})
	entryBuf := make([]NodeEntry, 0, NodeCapacity)
	//lint:ignore ctxcrawl baseline R-tree k-NN for benchmark probes, never on a serving query path
	for {
		it, distSq, ok := h.Pop()
		if !ok {
			return nil
		}
		if it.entry {
			if !visit(it.el, distSq) {
				return nil
			}
			continue
		}
		isLeaf, entries, err := readNode(t.pool, it.id, t.tally, entryBuf[:0])
		if err != nil {
			return err
		}
		if isLeaf {
			for _, e := range entries {
				h.Push(e.Box.DistSqToPoint(p), nnItem{
					entry: true,
					el:    geom.Element{ID: e.Ref, Box: e.Box},
				})
			}
			continue
		}
		for _, e := range entries {
			h.Push(e.Box.DistSqToPoint(p), nnItem{id: storage.PageID(e.Ref)})
		}
	}
}
