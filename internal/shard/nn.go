// Best-first k-NN over the sharded set.
//
// The range path visits the surviving shards in shard order. k-NN cannot
// afford that: best-first traversal exists to stop after k elements, and
// a scatter would pay every shard's seed descent up front. Instead the
// shard directory is the top level of core's one best-first frontier
// (core.NN): a shard enters the heap keyed by the distance to its bounds
// and is seeded only when that item surfaces, so a shard whose bound
// exceeds the last element the consumer takes is never opened. The
// staged delta joins the same frontier as core.NN's overlay: NNQuery
// copies every shard's runs and the delete view under pmu into a pooled
// nnView, releases the lock, and hands the view over. Ties and the delete
// filter are core.NN's.

package shard

import (
	"context"
	"fmt"
	"sync"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/str"
)

// nnView is one query's snapshot of the staged delta, handed to core.NN
// as its overlay: every shard's runs, with the slab each run's positions
// index, and the staged deletes. Taken under pmu, it stays valid after
// the lock is released (see delta.go). Views are pooled, so a warm query
// allocates nothing.
type nnView struct {
	runs  []str.Tree
	slabs [][]stagedInsert // by run
	dels  deleteView
}

var nnViews = sync.Pool{New: func() any { return new(nnView) }}

// take fills v from deltas, the live epoch's (under pmu's read side) or
// a copy of them, and dels.
func (v *nnView) take(deltas []shardDelta, dels deleteView) {
	for i := range deltas {
		for _, r := range deltas[i].runs {
			v.runs = append(v.runs, r)
			v.slabs = append(v.slabs, deltas[i].slab)
		}
	}
	v.dels = dels
}

// release drops v's references to the epoch and returns v to the pool.
func (v *nnView) release() {
	clear(v.runs)
	clear(v.slabs)
	v.runs, v.slabs, v.dels = v.runs[:0], v.slabs[:0], deleteView{}
	nnViews.Put(v)
}

func (v *nnView) Runs() []str.Tree { return v.runs }

func (v *nnView) Insert(run int, pos int32) (geom.Element, uint64) {
	si := v.slabs[run][pos]
	return si.el, si.seq
}

func (v *nnView) Deleted(el geom.Element, stamp uint64) bool { return v.dels.matchesAfter(el, stamp) }

// NNQuery streams the live elements in nondecreasing distance from p,
// each with its exact squared distance, until emit returns false. Live
// means bulkloaded and not hidden by a staged delete, or staged and not
// deleted since. A staged insert ranks after every bulkloaded element at
// its distance, and among staged inserts by staging order. A p with a
// NaN or infinite coordinate is an error. The returned stats cover
// exactly the work performed and Results counts the elements emitted.
//
// k is reserved: the stream runs until emit stops it, so a caller
// wanting k results stops after the k-th. It remains only because
// benchmark/ — frozen between benchmark PRs — passes it; the next
// benchmark-archetype PR drops the parameter.
func (s *Set) NNQuery(ctx context.Context, p geom.Vec3, _ int, emit func(geom.Element, float64) bool) (core.QueryStats, error) {
	if !geom.PointBox(p).Valid() {
		return core.QueryStats{}, fmt.Errorf("shard: nn query point %v is not finite", p)
	}
	v := nnViews.Get().(*nnView)
	defer v.release()
	s.pmu.RLock()
	g := s.cur
	v.take(s.staged.deltas, s.deleteViewLocked())
	s.pmu.RUnlock()
	return core.NN(ctx, g.shards, v, p, emit)
}
