// The staged state of a Set: one epoch value, with the in-memory delta
// index over it.
//
// This is the LSM memtable step of the write path: each shard's staged
// inserts are indexed by an insertion-built R-tree (rtree.DynTree over
// an in-memory page pool), so the overlay probe for a query box is a
// range query, not a sweep of everything pending, and the staged deletes
// are indexed by element ID, so the per-element doom check is a map
// lookup. The trees are accelerators only: the slab (append-ordered
// staged inserts) is the source of truth and every probe re-checks
// Intersects. Staged deletes have one matcher, the by-ID index
// (deleteView); the linear scan it is held to lives beside the tests.
//
// Staging mutates the live epoch under pmu's write side, and the Rebuild
// that consumes it installs a fresh one: Set.staged is replaced whole.
// Nothing is carried from one epoch into the next, so the garbage
// collector is the only recycler and a later epoch cannot be served an
// earlier one's delete index.
//
// A batch that lands on an empty delta — the log replayed by an open, a
// bulk StageInsert — is packed in one STR bulkload (shardDelta.add,
// rtree.DynTree.Pack): same node format, probes and answers, for a sort
// instead of a root-to-leaf descent and split cascade per element. Only
// a delta that already holds something grows by single inserts.

package shard

import (
	"sync/atomic"

	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// epoch is the staged state of a Set between two rebuilds. Its fields
// are guarded by the pmu of the Set that holds it.
type epoch struct {
	deltas  []shardDelta    // by shard: staged inserts and their delta R-tree
	deletes []pendingDelete // in staging order; append-only
	// delView caches the by-ID index over deletes (see deleteViewLocked):
	// atomically published immutable snapshots, so readers holding pmu's
	// read side may publish one.
	delView atomic.Pointer[deleteView]
}

func newEpoch(shards int) *epoch {
	return &epoch{deltas: make([]shardDelta, shards)}
}

// shardDelta holds one shard's staged inserts: the slab is the
// append-ordered (hence seq-ascending) source of truth, the tree maps a
// query box to slab positions (each inserted element's tree ID is its
// slab index, so duplicate-ID and duplicate-box inserts stay distinct).
// The zero value is an empty delta; the tree is created by the first add.
type shardDelta struct {
	slab []stagedInsert
	tree *rtree.DynTree
}

// add stages a batch of inserts, given in staging order: packed into
// the tree in one bulkload when the delta is empty — the only
// condition; there is no size threshold — and inserted one by one
// otherwise. Either way the tree is updated before the slab, so a tree
// failure never leaves the two disagreeing.
func (d *shardDelta) add(batch []stagedInsert) error {
	if len(d.slab) == 0 {
		// The delta tree lives on its own unbounded in-memory pool: its
		// pages are scratch that die with the staging epoch, so they must
		// not compete with real shards for the shared cache budget. Any
		// number of queries may probe the tree at once under pmu's read
		// side; ConcurrentPool's contract (Alloc/Write never concurrent
		// with reads) is satisfied because inserts run exclusively under
		// pmu's write side. A tree whose Pack failed is empty and is
		// replaced, never packed twice.
		d.tree = rtree.NewDynTree(storage.NewConcurrentPool(storage.NewMemPager(), 0), rtree.Config{})
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
	if len(d.slab) == 0 {
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

// deleteView is a query's snapshot of the staged deletes: an immutable
// by-ID index over the first n of them — every one pending when it was
// taken (the overlay contract; see overlayFor). It is built once per
// delete-list length and shared by every query until the list grows;
// sharing is safe because the map is never mutated after publication.
// The zero value holds no deletes.
type deleteView struct {
	n    int
	byID map[uint64][]pendingDelete
}

// matches reports whether e is doomed by any staged delete (bulkloaded
// elements predate the whole staging epoch, so every delete applies).
func (v deleteView) matches(e geom.Element) bool {
	for _, d := range v.byID[e.ID] {
		if deleteMatches(d, e) {
			return true
		}
	}
	return false
}

// matchesAfter reports whether a staged insert stamped seq is doomed by
// a delete staged later than it.
func (v deleteView) matchesAfter(e geom.Element, seq uint64) bool {
	for _, d := range v.byID[e.ID] {
		if d.seq > seq && deleteMatches(d, e) {
			return true
		}
	}
	return false
}

// deleteViewLocked snapshots the staged deletes for one query. The view
// is cached in the epoch and rebuilt when the list has grown; it owns
// its map, so it stays valid after pmu is released and after the epoch
// is consumed. Concurrent readers may race to rebuild it, which is
// benign — every candidate is an equivalent immutable snapshot and any
// of them may win the atomic publish.
// flatlint:holds pmu
func (s *Set) deleteViewLocked() deleteView {
	ep := s.staged
	n := len(ep.deletes)
	if n == 0 {
		return deleteView{}
	}
	if v := ep.delView.Load(); v != nil && v.n == n {
		return *v
	}
	v := deleteView{n: n, byID: make(map[uint64][]pendingDelete, n)}
	for _, d := range ep.deletes {
		v.byID[d.ID] = append(v.byID[d.ID], d)
	}
	ep.delView.Store(&v)
	return v
}
