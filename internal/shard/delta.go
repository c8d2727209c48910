// The staged state of a Set: one epoch value, with the in-memory delta
// index over it.
//
// This is the LSM memtable step of the write path, kept by Bentley and
// Saxe's logarithmic method. Each shard's staged inserts live in a slab
// (append-ordered, hence seq-ascending: the source of truth) tiled by a
// few immutable runs. A run is a str.Tree over one contiguous slab range:
// its slab positions in str.Tile order plus one box per node, level by
// level, at a fixed fanout (Build's neighbor join packs the same tree
// over partition cells). The overlay probe for a query box is a walk
// that rejects a run on its root box, not a sweep of everything pending,
// and ends at each staged insert's own box. The staged deletes are tiled
// the same way by runs of positions into their append-only list, sorted
// by element ID, so a doom check is one binary search per run.
//
// Staging appends to the list and pushes the new entries as one run,
// which absorbs the newest runs while they are shorter than twice it
// (mergeTail) and repacks their contiguous range. Each run is thus at
// least twice the next: n entries lie in at most ⌊log₂ n⌋ + 1 runs
// whatever the batch sizes, and a batch on an empty delta (a replayed
// log, a bulk StageInsert) is the one-run case. A pack is an in-memory
// sort that cannot fail, so staging has no error path past the WAL.
//
// Nothing a reader can see is modified: the lists only grow past the
// lengths a reader holds, runs are never rewritten, and a run list is
// replaced (a three-index append), not extended in place. So a copy of a
// shardDelta or a deleteView taken under pmu stays valid after the lock
// is released, whatever is staged later. The Rebuild that consumes an
// epoch replaces Set.staged whole; the garbage collector recycles.

package shard

import (
	"cmp"
	"slices"
	"sync"

	"flat/internal/geom"
	"flat/internal/str"
)

// epoch is the staged state of a Set between two rebuilds. Its fields
// are guarded by the pmu of the Set that holds it.
type epoch struct {
	deltas  []shardDelta    // by shard: staged inserts and their runs
	deletes []pendingDelete // in staging order; append-only
	delRuns [][]int32       // positions in deletes sorted by ID; they tile it, oldest first
}

func newEpoch(shards int) *epoch {
	return &epoch{deltas: make([]shardDelta, shards)}
}

// addDeletes stages ds, given in staging order, as one run.
func (ep *epoch) addDeletes(ds ...pendingDelete) {
	if len(ds) == 0 {
		return
	}
	ep.deletes = append(ep.deletes, ds...)
	keep, tail := mergeTail(ep.delRuns, len(ds), func(r []int32) int { return len(r) })
	r := make([]int32, tail)
	for i := range r {
		r[i] = int32(len(ep.deletes) - tail + i)
	}
	slices.SortStableFunc(r, func(a, b int32) int { return cmp.Compare(ep.deletes[a].ID, ep.deletes[b].ID) })
	ep.delRuns = append(ep.delRuns[:keep:keep], r)
}

// mergeTail is the merge rule for runs tiling a list's tail, oldest
// first, when a new run of n entries lands: while the newest run is
// shorter than twice what the new run covers, the new run absorbs it. It
// returns how many runs stay and how many entries at the list's end the
// new run covers.
func mergeTail[R any](runs []R, n int, size func(R) int) (keep, tail int) {
	keep, tail = len(runs), n
	for keep > 0 && size(runs[keep-1]) < 2*tail {
		keep--
		tail += size(runs[keep])
	}
	return keep, tail
}

// shardDelta holds one shard's staged inserts: the slab and the runs
// that tile it, oldest first. Each run is a str.Tree over one contiguous
// slab range, naming its staged inserts by slab position. The zero value
// is an empty delta.
type shardDelta struct {
	slab []stagedInsert
	runs []str.Tree
}

// add stages a batch of inserts, given in staging order, as one run.
func (d *shardDelta) add(batch []stagedInsert) {
	d.slab = append(d.slab, batch...)
	keep, tail := mergeTail(d.runs, len(batch), func(r str.Tree) int { return len(r.Pos) })
	pos := make([]int32, tail)
	for i := range pos {
		pos[i] = int32(len(d.slab) - tail + i)
	}
	d.runs = append(d.runs[:keep:keep], str.Pack(pos, d.at))
}

// at returns the box of the staged insert at slab position p: the item
// boxes of d's runs.
func (d *shardDelta) at(p int32) geom.MBR { return d.slab[p].el.Box }

// deleteView is a query's snapshot of the staged deletes: every one
// pending when it was taken and the ID-sorted runs over them. It carries
// every pending delete, not just those meeting the query box: delete
// matching is by containment in the *stored* box (see deleteMatches),
// and on a quantized v2 shard the stored box can meet the query while
// the delete's requested box grazes just outside it. The zero value
// holds no deletes.
type deleteView struct {
	deletes []pendingDelete
	runs    [][]int32
}

// matches reports whether e is doomed by any staged delete: bulkloaded
// elements predate the whole staging epoch, and staging stamps start at
// 1, so every delete is staged after stamp 0.
func (v deleteView) matches(e geom.Element) bool { return v.matchesAfter(e, 0) }

// matchesAfter reports whether a staged insert stamped seq is doomed by
// a delete staged later than it.
func (v deleteView) matchesAfter(e geom.Element, seq uint64) bool {
	for _, r := range v.runs {
		i, _ := slices.BinarySearchFunc(r, e.ID, func(p int32, id uint64) int { return cmp.Compare(v.deletes[p].ID, id) })
		for ; i < len(r) && v.deletes[r[i]].ID == e.ID; i++ {
			if d := v.deletes[r[i]]; d.seq > seq && deleteMatches(d, e) {
				return true
			}
		}
	}
	return false
}

// deleteViewLocked snapshots the staged deletes for one query without
// allocating; the view outlives pmu and the epoch (see the file header).
// flatlint:holds pmu
func (s *Set) deleteViewLocked() deleteView {
	return deleteView{deletes: slices.Clip(s.staged.deletes), runs: s.staged.delRuns}
}

// view is one query's snapshot of the staged delta: every shard's runs,
// with the slab each run's positions index, and the staged deletes.
// Taken under pmu, it stays valid after the lock is released (see the
// file header). A range query probes it (stagedHits); a k-NN query hands
// it to core.NN as its overlay. Views are pooled with their buffers, so
// a warm query allocates nothing.
type view struct {
	runs  []str.Tree
	slabs [][]stagedInsert // by run
	dels  deleteView
	hits  []stagedInsert // stagedHits' result
}

var views = sync.Pool{New: func() any { return new(view) }}

// takeView snapshots the generation s serves and its staged delta, in
// one read lock, into a pooled view the caller releases.
func (s *Set) takeView() (*generation, *view) {
	v := views.Get().(*view)
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	v.take(s.staged.deltas, s.deleteViewLocked())
	return s.cur, v
}

// take fills v from deltas, the live epoch's (under pmu's read side) or
// a copy of them, and dels.
func (v *view) take(deltas []shardDelta, dels deleteView) {
	for i := range deltas {
		for _, r := range deltas[i].runs {
			v.runs = append(v.runs, r)
			v.slabs = append(v.slabs, deltas[i].slab)
		}
	}
	v.dels = dels
}

// release drops v's references to the epoch and returns v to the pool.
func (v *view) release() {
	clear(v.runs)
	clear(v.slabs)
	clear(v.hits)
	v.runs, v.slabs, v.hits, v.dels = v.runs[:0], v.slabs[:0], v.hits[:0], deleteView{}
	views.Put(v)
}

// stagedHits returns, in staging order, the staged inserts whose boxes
// meet q and that no later delete dooms. It probes every run, not only
// those of the shards whose bounds meet q: a staged insert can lie
// outside its shard's bounds. The result is v's buffer, valid until v
// is released.
func (v *view) stagedHits(q geom.MBR) []stagedInsert {
	v.hits = v.hits[:0]
	for i := range v.runs {
		slab := v.slabs[i]
		v.runs[i].Search(q, func(p int32) geom.MBR { return slab[p].el.Box }, func(p int32) {
			if si := slab[p]; !v.dels.matchesAfter(si.el, si.seq) {
				v.hits = append(v.hits, si)
			}
		})
	}
	// A run yields its hits in tile order, and shards interleave in
	// staging; stamps are unique, so sorting by them restores the order.
	slices.SortFunc(v.hits, func(a, b stagedInsert) int { return cmp.Compare(a.seq, b.seq) })
	return v.hits
}

func (v *view) Runs() []str.Tree { return v.runs }

func (v *view) Insert(run int, pos int32) (geom.Element, uint64) {
	si := v.slabs[run][pos]
	return si.el, si.seq
}

func (v *view) Deleted(el geom.Element, stamp uint64) bool { return v.dels.matchesAfter(el, stamp) }
