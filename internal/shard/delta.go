// The staged state of a Set: one epoch value, with the in-memory delta
// index over it.
//
// This is the LSM memtable step of the write path, kept by Bentley and
// Saxe's logarithmic method. The staged inserts live in one append-only
// list in staging order (hence seq-ascending: the source of truth),
// tiled by a few immutable runs. A run is a str.Tree over one contiguous
// list range: its list positions in str.Tile order plus one box per
// node, level by level, at a fixed fanout (Build's neighbor join packs
// the same tree over partition cells). The overlay probe for a query box
// is a walk that rejects a run on its root box, not a sweep of
// everything pending, and ends at each staged insert's own box. The
// staged deletes are tiled the same way by runs of positions into their
// append-only list, sorted by element ID, so a doom check is one binary
// search per run. No query asks which shard a staged insert belongs to;
// only Rebuild and DirtyShards do, and they route the list when they
// are called (routeLocked).
//
// Staging appends to a list and pushes the new entries as one run,
// which absorbs the newest runs while they are shorter than twice it
// (mergeTail) and repacks their contiguous range. Each run is thus at
// least twice the next: n entries lie in at most ⌊log₂ n⌋ + 1 runs
// whatever the batch sizes, and a batch on an empty delta (a replayed
// log, a bulk StageInsert) is the one-run case. A pack is an in-memory
// sort that cannot fail, so staging has no error path past the WAL.
//
// Nothing a reader can see is modified: the lists only grow past the
// lengths a reader holds, runs are never rewritten, and a run list is
// replaced (a three-index append), not extended in place. So a view or
// a deleteView taken under pmu stays valid after the lock is released,
// whatever is staged later. The Rebuild that consumes an epoch replaces
// Set.staged whole; the garbage collector recycles.

package shard

import (
	"cmp"
	"slices"
	"sync"

	"flat/internal/geom"
	"flat/internal/str"
)

// epoch is the staged state of a Set between two rebuilds. Its fields
// are guarded by the pmu of the Set that holds it; the zero value is an
// empty epoch.
type epoch struct {
	inserts []stagedInsert  // in staging order; append-only
	insRuns []str.Tree      // over positions in inserts; they tile it, oldest first
	deletes []pendingDelete // in staging order; append-only
	delRuns [][]int32       // positions in deletes sorted by ID; they tile it, oldest first
}

// addInserts stages ins, given in staging order, as one run.
func (ep *epoch) addInserts(ins []stagedInsert) {
	if len(ins) == 0 {
		return
	}
	ep.inserts = append(ep.inserts, ins...)
	keep, tail := mergeTail(ep.insRuns, len(ins), func(r str.Tree) int { return len(r.Pos) })
	ep.insRuns = append(ep.insRuns[:keep:keep], str.Pack(tailPositions(len(ep.inserts), tail), ep.at))
}

// at returns the box of the staged insert at list position p: the item
// boxes of ep's insert runs.
func (ep *epoch) at(p int32) geom.MBR { return ep.inserts[p].el.Box }

// addDeletes stages ds, given in staging order, as one run.
func (ep *epoch) addDeletes(ds ...pendingDelete) {
	if len(ds) == 0 {
		return
	}
	ep.deletes = append(ep.deletes, ds...)
	keep, tail := mergeTail(ep.delRuns, len(ds), func(r []int32) int { return len(r) })
	r := tailPositions(len(ep.deletes), tail)
	slices.SortStableFunc(r, func(a, b int32) int { return cmp.Compare(ep.deletes[a].ID, ep.deletes[b].ID) })
	ep.delRuns = append(ep.delRuns[:keep:keep], r)
}

// tailPositions returns the positions of the last tail entries of a
// list n long, in order.
func tailPositions(n, tail int) []int32 {
	pos := make([]int32, tail)
	for i := range pos {
		pos[i] = int32(n - tail + i)
	}
	return pos
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

// filter compacts the elements any staged delete dooms out of run in
// place and returns what is left; with no deletes it returns run as is.
func (v deleteView) filter(run []geom.Element) []geom.Element {
	if len(v.deletes) == 0 {
		return run
	}
	kept := run[:0]
	for _, e := range run {
		if !v.matches(e) {
			kept = append(kept, e)
		}
	}
	return kept
}

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

// view is one query's snapshot of the staged delta: the staged inserts
// with the runs over them, and the staged deletes. Taken under pmu, it
// stays valid after the lock is released (see the file header). A range
// query probes it (stagedHits); a k-NN query hands it to core.NN as its
// overlay. Views are pooled with their buffers, so a warm query
// allocates nothing; query takes and returns them.
type view struct {
	inserts []stagedInsert
	runs    []str.Tree
	dels    deleteView
	found   []int32        // stagedHits' matches: positions in inserts
	hits    []geom.Element // stagedHits' result
}

var views = sync.Pool{New: func() any { return new(view) }}

// query runs fn as one query: over the generation s serves and a pooled
// view of its staged delta, both taken in one read lock. The query holds
// the generation from that lock until fn returns, fails or panics (the
// hold is dropped in a defer here), so a Rebuild or Close meanwhile
// never closes a pager fn reads. After Close fn does not run and query
// returns ErrClosed.
func (s *Set) query(fn func(*generation, *view) error) error {
	g, v := s.enter()
	if v == nil {
		return ErrClosed
	}
	defer s.leave(g, v)
	return fn(g, v)
}

// enter is query's read-locked step: it adds a hold on the served
// generation and snapshots it and the staged delta, or returns a nil
// view after Close.
func (s *Set) enter() (*generation, *view) {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	if s.closed {
		return nil, nil
	}
	s.cur.holds.Add(1)
	v := views.Get().(*view)
	v.inserts, v.runs, v.dels = slices.Clip(s.staged.inserts), s.staged.insRuns, s.deleteViewLocked()
	return s.cur, v
}

// leave ends query's fn: it drops v's references to the epoch, returns
// v to the pool and releases the hold on g (discarding a pager-close
// error; see Close).
func (s *Set) leave(g *generation, v *view) {
	clear(v.hits)
	v.inserts, v.runs, v.found, v.hits, v.dels = nil, nil, v.found[:0], v.hits[:0], deleteView{}
	views.Put(v)
	g.release()
}

// stagedHits returns, in staging order, the staged inserts whose boxes
// meet q and that no later delete dooms: the run a range query emits
// after its last shard. The result is v's buffer, valid until query's
// fn returns.
func (v *view) stagedHits(q geom.MBR) []geom.Element {
	v.found = v.found[:0]
	for i := range v.runs {
		v.runs[i].Search(q, v.at, func(p int32) {
			if si := v.inserts[p]; !v.dels.matchesAfter(si.el, si.seq) {
				v.found = append(v.found, p)
			}
		})
	}
	// A run yields its hits in tile order; the list is in staging order,
	// so sorting the positions restores it.
	slices.Sort(v.found)
	v.hits = v.hits[:0]
	for _, p := range v.found {
		v.hits = append(v.hits, v.inserts[p].el)
	}
	return v.hits
}

// at returns the box of the staged insert at list position p.
func (v *view) at(p int32) geom.MBR { return v.inserts[p].el.Box }

func (v *view) Runs() []str.Tree { return v.runs }

func (v *view) Insert(pos int32) (geom.Element, uint64) {
	si := v.inserts[pos]
	return si.el, si.seq
}

func (v *view) Deleted(el geom.Element, stamp uint64) bool { return v.dels.matchesAfter(el, stamp) }
