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
// inserts, however, are collected *eagerly* under pmu's read side: the
// per-shard delta trees are probed best-first (rtree.Tree.NN) and the
// surviving candidates merged into one distance-sorted list before pmu
// is released — a lazy delta stream would probe the trees past the
// snapshot, while staging mutates the live epoch's trees and slabs
// under pmu's write side. The list is capped at k per delta when k is
// positive, which is safe: the global k nearest staged inserts are a
// subset of each delta's k nearest. The sink emits every staged insert
// strictly nearer than the bulk element in hand before that element.
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
	"math"
	"slices"

	"flat/internal/core"
	"flat/internal/geom"
)

// stagedNear is one surviving staged insert with its distance and
// staging stamp (the tie-break among staged hits).
type stagedNear struct {
	el     geom.Element
	distSq float64
	seq    uint64
}

// stagedNearestLocked snapshots the staged inserts that survive the
// staged deletes, sorted by (distance, staging order) — the list
// NNQuery merges into the bulk stream. Probes each delta's R-tree
// best-first and stops at k survivors per delta when k > 0. Must run
// under pmu's read side; the returned slice owns its memory and
// outlives the lock.
// flatlint:holds pmu
func (s *Set) stagedNearestLocked(p geom.Vec3, k int, dels deleteView) ([]stagedNear, error) {
	var out []stagedNear
	for _, d := range s.staged.deltas {
		if len(d.slab) == 0 {
			continue
		}
		view, err := d.tree.View()
		if err != nil {
			return nil, err
		}
		taken := 0
		err = view.NN(p, func(h geom.Element, distSq float64) bool {
			si := d.slab[h.ID]
			if dels.matchesAfter(si.el, si.seq) {
				return true
			}
			out = append(out, stagedNear{el: si.el, distSq: distSq, seq: si.seq})
			taken++
			return k <= 0 || taken < k
		})
		if err != nil {
			return nil, err
		}
	}
	slices.SortFunc(out, func(a, b stagedNear) int {
		return cmp.Or(cmp.Compare(a.distSq, b.distSq), cmp.Compare(a.seq, b.seq))
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
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
	staged, err := s.stagedNearestLocked(p, k, dels)
	s.pmu.RUnlock()
	if err != nil {
		return core.QueryStats{}, err
	}

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
	// A bulk stream that ran dry leaves the farther staged inserts.
	if err == nil && !stopped {
		sendStaged(math.Inf(1))
	}
	// Results counts set-level emissions, not what the bulk stream
	// produced before delete filtering.
	st.Results = emitted
	return st, err
}
