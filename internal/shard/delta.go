// In-memory delta index for staged updates.
//
// Before this file, staged inserts lived in flat per-shard slices and
// staged deletes in one flat list, and every query's overlay snapshot
// linearly scanned both — O(pending) work per query, which defeats the
// point of an index once the pending delta grows past a few hundred
// entries. This is the LSM memtable step of the write path: each
// shard's staged inserts are additionally indexed by an insertion-built
// R-tree (rtree.DynTree over an in-memory page pool), so the overlay
// probe for a query box is a range query, and the staged deletes are
// indexed by element ID, so the per-element doom check is a map lookup.
//
// The indexes are pure accelerators: the slab (append-ordered staged
// inserts) and the delete list remain the source of truth, and both
// probe paths filter through exactly the same predicates as the linear
// scans (Intersects for inserts, deleteMatches containment for
// deletes), so results are bit-for-bit what the linear overlay
// produced.
//
// A batch that lands on an empty delta — the log replayed by an open, a
// bulk StageInsert — is packed in one STR bulkload (shardDelta.add,
// rtree.DynTree.Pack): same node format, probes and answers, for a sort
// instead of a root-to-leaf descent and split cascade per element. Only
// a delta that already holds something grows by single inserts.

package shard

import (
	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// shardDelta holds one shard's staged inserts: the slab is the
// append-ordered (hence seq-ascending) source of truth, the tree maps a
// query box to slab positions (each inserted element's tree ID is its
// slab index, so duplicate-ID and duplicate-box inserts stay distinct).
type shardDelta struct {
	slab []stagedInsert
	tree *rtree.DynTree
}

func newShardDelta() *shardDelta {
	// The delta tree lives on its own unbounded in-memory pool: its
	// pages are scratch that die with the staging epoch, so they must
	// not compete with real shards for the shared cache budget. Any
	// number of queries may probe the tree at once under pmu's read
	// side; ConcurrentPool's contract (Alloc/Write never concurrent
	// with reads) is satisfied because inserts run exclusively under
	// pmu's write side.
	return &shardDelta{tree: rtree.NewDynTree(storage.NewConcurrentPool(storage.NewMemPager(), 0), rtree.Config{})}
}

// reset empties the delta for reuse by a later staging epoch: the slab
// truncates in place and the tree recycles its node pages and pool
// (see rtree.DynTree.Reset). Callers must guarantee no query can still
// probe the tree — Rebuild holds the public maintenance guard, which
// excludes queries, and overlay snapshots never outlive pmu's read side.
func (d *shardDelta) reset() {
	d.slab = d.slab[:0]
	d.tree.Reset()
}

// add stages a batch of inserts, given in staging order: packed into
// the tree in one bulkload when the delta is empty — the only
// condition; there is no size threshold — and inserted one by one
// otherwise. Either way the tree is updated before the slab, so a tree
// failure never leaves the two disagreeing.
func (d *shardDelta) add(batch []stagedInsert) error {
	if len(d.slab) == 0 {
		els := make([]geom.Element, len(batch))
		for i, si := range batch {
			els[i] = geom.Element{ID: uint64(i), Box: si.el.Box}
		}
		if err := d.tree.Pack(els); err != nil {
			return err
		}
		d.slab = append(d.slab, batch...)
		return nil
	}
	for _, si := range batch {
		if err := d.tree.Insert(geom.Element{ID: uint64(len(d.slab)), Box: si.el.Box}); err != nil {
			return err
		}
		d.slab = append(d.slab, si)
	}
	return nil
}

// forEachCandidate hands fn every staged insert whose box the delta
// tree reports as intersecting q. Callers re-check Intersects, so
// correctness never depends on the tree's pruning.
func (d *shardDelta) forEachCandidate(q geom.MBR, fn func(si stagedInsert)) error {
	if d.tree.Len() == 0 {
		return nil
	}
	view, err := d.tree.View()
	if err != nil {
		return err
	}
	hits, err := view.RangeQuery(q)
	if err != nil {
		return err
	}
	for _, h := range hits {
		fn(d.slab[h.ID])
	}
	return nil
}

// deleteIndex is an immutable by-ID view of the first n staged deletes.
// It is built once per delete-list length and shared by every query
// until the list grows (or a rebuild clears it); sharing is safe
// because the map is never mutated after publication.
type deleteIndex struct {
	n    int
	byID map[uint64][]pendingDelete
}

func buildDeleteIndex(dels []pendingDelete) *deleteIndex {
	byID := make(map[uint64][]pendingDelete, len(dels))
	for _, d := range dels {
		byID[d.ID] = append(byID[d.ID], d)
	}
	return &deleteIndex{n: len(dels), byID: byID}
}

// deleteIndexMin is the delete-list length below which queries match
// linearly: building a map to answer a handful of ID probes costs more
// than the sweeps it saves.
const deleteIndexMin = 8

// deleteView is a query's snapshot of the staged deletes: all is the
// full list (the overlay contract snapshots every pending delete — see
// overlayFor), idx the optional by-ID accelerator. Both match paths
// apply the same deleteMatches predicate; a view answers identically
// with or without its index.
type deleteView struct {
	all []pendingDelete
	idx *deleteIndex
}

// matches reports whether e is doomed by any staged delete (bulkloaded
// elements predate the whole staging epoch, so every delete applies).
func (v deleteView) matches(e geom.Element) bool {
	if v.idx != nil {
		for _, d := range v.idx.byID[e.ID] {
			if e.Box.Contains(d.Box) {
				return true
			}
		}
		return false
	}
	return matchesDelete(v.all, e)
}

// matchesAfter reports whether a staged insert stamped seq is doomed by
// a delete staged later than it.
func (v deleteView) matchesAfter(e geom.Element, seq uint64) bool {
	if v.idx != nil {
		for _, d := range v.idx.byID[e.ID] {
			if d.seq > seq && e.Box.Contains(d.Box) {
				return true
			}
		}
		return false
	}
	return matchesDeleteAfter(v.all, e, seq)
}

// deleteViewLocked snapshots the staged deletes for one query. The
// returned view aliases the delete list's current prefix, which is
// immutable (StageDelete only appends; Rebuild replaces the slice), so
// the view stays valid after pmu is released. The by-ID index is cached
// across queries in s.delIdx and rebuilt when the list has grown;
// concurrent readers may race to rebuild it, which is benign — every
// candidate is an equivalent immutable snapshot and any of them may
// win the atomic publish.
// flatlint:holds pmu
func (s *Set) deleteViewLocked() deleteView {
	n := len(s.deletes)
	if n == 0 {
		return deleteView{}
	}
	all := s.deletes[:n:n]
	if n < deleteIndexMin {
		return deleteView{all: all}
	}
	idx := s.delIdx.Load()
	if idx == nil || idx.n != n {
		idx = buildDeleteIndex(all)
		s.delIdx.Store(idx)
	}
	return deleteView{all: all, idx: idx}
}
