// Best-first k-NN over the sharded set.
//
// The range path visits every surviving shard in shard order and
// concatenates the results. Nearest-neighbor search cannot afford that
// — the whole point of best-first traversal is to stop after k
// elements, and a scatter would pay every shard's seed descent up
// front. Instead the shard directory is the top level of core's one
// best-first frontier (core.NN): a shard enters the heap as an item
// keyed by the distance to its bounds MBR, which lower-bounds
// everything inside it, and is seeded only when that item surfaces.
// There is no merge here and no per-shard stream — one heap orders the
// records, pages and elements of every shard, so nothing whose bound
// exceeds the last element the consumer takes is read, in any shard,
// and a shard whose bound does is never opened at all: with
// well-separated shards a k=1 probe touches exactly one.
//
// NNQuery is therefore a sink over that stream, overlaying pending
// writes the way the range path does, with one asymmetry. Staged
// deletes filter the bulk stream as elements arrive
// (deleteView.matches, same predicate as the range overlay). Staged
// inserts, however, are collected *eagerly* under pmu's read side: one
// best-first walk over every shard's runs (delta.go), on a pooled heap,
// yields the surviving staged inserts as one list sorted by (distance,
// staging order) before pmu is released. The list is capped at k when k
// is positive; the walk takes every survivor tied with the k-th before
// the sort cuts, so the cut does not depend on how the inserts were
// batched into runs, and survives a log replay. The sink emits every
// staged insert strictly nearer than the bulk element in hand first.
//
// Emission-order ties are deterministic for a given set: bulk elements
// at equal distance surface in the frontier's discovery order, and
// staged inserts rank after every bulk element at their distance
// (mirroring the range path, where staged inserts stream last), among
// themselves by staging order.

package shard

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/rtree"
)

// stagedNear is one surviving staged insert with its distance and
// staging stamp (the tie-break among staged hits).
type stagedNear struct {
	el     geom.Element
	distSq float64
	seq    uint64
}

// runItem is one pending unit of the staged best-first walk: node of
// run of deltas[delta] at level (-1: a staged insert; see str.Tree).
type runItem struct {
	delta, run, level, node int32
}

// nearHeaps recycles the staged walk's frontier across queries.
var nearHeaps = sync.Pool{New: func() any { return new(rtree.DistHeap[runItem]) }}

// stagedNearest returns the staged inserts of deltas that survive dels,
// sorted by (distance, staging order) and cut at k when k > 0 — the list
// NNQuery merges into the bulk stream. deltas is the live epoch's (under
// pmu's read side) or a copy of it; the returned slice owns its memory.
func stagedNearest(deltas []shardDelta, p geom.Vec3, k int, dels deleteView) []stagedNear {
	h := nearHeaps.Get().(*rtree.DistHeap[runItem])
	defer func() { h.Reset(); nearHeaps.Put(h) }()
	for i := range deltas {
		for j, r := range deltas[i].runs {
			h.Push(r.Levels[r.Top()][0].DistSqToPoint(p), runItem{int32(i), int32(j), int32(r.Top()), 0})
		}
	}
	var out []stagedNear
	for {
		// Items pop in nondecreasing distance: once k survivors are taken,
		// the first item farther than the last of them ends the walk.
		it, distSq, ok := h.Pop()
		if !ok || k > 0 && len(out) >= k && distSq > out[len(out)-1].distSq {
			break
		}
		d, r := &deltas[it.delta], &deltas[it.delta].runs[it.run]
		if it.level < 0 {
			if si := d.slab[r.Pos[it.node]]; !dels.matchesAfter(si.el, si.seq) {
				out = append(out, stagedNear{el: si.el, distSq: distSq, seq: si.seq})
			}
			continue
		}
		lo, hi := r.Children(int(it.level), int(it.node))
		for c := lo; c < hi; c++ {
			h.Push(r.Box(int(it.level)-1, c, d.at).DistSqToPoint(p), runItem{it.delta, it.run, it.level - 1, int32(c)})
		}
	}
	slices.SortFunc(out, func(a, b stagedNear) int {
		return cmp.Or(cmp.Compare(a.distSq, b.distSq), cmp.Compare(a.seq, b.seq))
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// NNQuery streams the indexed elements in nondecreasing distance from
// p, each with its exact squared distance, until emit returns false.
// k caps how many staged inserts are snapshotted (<= 0: all of them);
// it is a sizing hint only — the stream itself runs until stopped, so
// a caller wanting exactly k results stops after the k-th emit.
// Staged updates are overlaid exactly as in RangeQuery: staged deletes
// filter the bulk stream, surviving staged inserts merge in by
// distance (ranking after bulk elements at equal distance). The
// returned stats cover exactly the work performed and Results counts
// the elements actually emitted.
func (s *Set) NNQuery(ctx context.Context, p geom.Vec3, k int, emit func(geom.Element, float64) bool) (core.QueryStats, error) {
	s.pmu.RLock()
	g := s.cur
	dels := s.deleteViewLocked()
	staged := stagedNearest(s.staged.deltas, p, k, dels)
	s.pmu.RUnlock()

	emitted, stopped := 0, false
	// send delivers one element of the merged stream and reports
	// whether the consumer wants more.
	send := func(e geom.Element, distSq float64) bool {
		emitted++
		stopped = !emit(e, distSq)
		return !stopped
	}
	// sendStaged delivers the staged inserts strictly nearer than limit:
	// a bulk element at the same distance goes first.
	sendStaged := func(limit float64) bool {
		for len(staged) > 0 && staged[0].distSq < limit {
			h := staged[0]
			staged = staged[1:]
			if !send(h.el, h.distSq) {
				return false
			}
		}
		return true
	}
	st, err := core.NN(ctx, g.shards, p, func(e geom.Element, distSq float64) bool {
		return dels.matches(e) || (sendStaged(distSq) && send(e, distSq))
	})
	// A bulk stream that ran dry leaves the farther staged inserts: all of
	// them, those whose squared distance overflowed to +Inf included.
	if err == nil && !stopped {
		for _, h := range staged {
			if !send(h.el, h.distSq) {
				break
			}
		}
	}
	// Results counts set-level emissions, not what the bulk stream
	// produced before delete filtering.
	st.Results = emitted
	return st, err
}
