// Best-first k-NN over the sharded set.
//
// The range path scatter-gathers: every surviving shard is crawled and
// the results are concatenated. Nearest-neighbor search cannot afford
// that — the whole point of best-first traversal is to stop after k
// elements, and a scatter would pay every shard's seed descent up
// front. Instead the directory itself becomes a frontier: each shard's
// bounds MBR lower-bounds the distance of everything inside it, so
// shards are *opened* lazily in nondecreasing bound distance, and the
// per-shard best-first streams (core's Engine.NN, one iter.Pull
// coroutine each) are k-way merged by their buffered heads. A shard
// whose bound distance exceeds the current global candidate is never
// opened at all — with well-separated shards a k=1 probe touches
// exactly one.
//
// Pending writes overlay the merge the same way they overlay a range
// query, with one asymmetry. Staged deletes filter the bulk streams as
// elements are pulled (deleteView.matches, same predicate as the range
// overlay). Staged inserts, however, are collected *eagerly* under
// pmu's read side: the per-shard delta trees are probed best-first
// (rtree.Tree.NN) and the surviving candidates merged into one
// distance-sorted list before pmu is released — a lazy delta stream
// would have to hold delta-tree pages past the snapshot, and those
// pages are recycled by later staging epochs (DynTree.Reset). The
// list is capped at k per delta when k is positive, which is safe:
// the global k nearest staged inserts are a subset of each delta's k
// nearest.
//
// Emission-order ties are deterministic: equal distances resolve to
// the lower shard index, and staged inserts rank after every bulk
// shard (mirroring the range path, where staged inserts stream last),
// among themselves by staging order.

package shard

import (
	"context"
	"iter"
	"math"
	"sort"

	"flat/internal/core"
	"flat/internal/geom"
)

// nnHit is one element of a best-first stream with its exact squared
// distance from the query point.
type nnHit struct {
	el     geom.Element
	distSq float64
}

// stagedNear is one surviving staged insert with its distance and
// staging stamp (the tie-break among staged hits).
type stagedNear struct {
	el     geom.Element
	distSq float64
	seq    uint64
}

// stagedNearestLocked snapshots the staged inserts that survive the
// staged deletes, sorted by (distance, staging order) — the staged leg
// of the NN merge. Probes each delta's R-tree best-first and stops at
// k survivors per delta when k > 0. Must run under pmu's read side;
// the returned slice owns its memory and outlives the lock.
// flatlint:holds pmu
func (s *Set) stagedNearestLocked(p geom.Vec3, k int, dels deleteView) ([]stagedNear, error) {
	var out []stagedNear
	for _, d := range s.delta {
		if d == nil || len(d.slab) == 0 {
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].distSq != out[j].distSq {
			return out[i].distSq < out[j].distSq
		}
		return out[i].seq < out[j].seq
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// shardNNStream is one opened shard's best-first stream: an iter.Pull
// cursor over the shard's Engine.NN plus the buffered head the merge
// compares. stats and err are final once next has reported false or
// stop has returned (iter.Pull runs the pushed sequence to completion
// before either).
type shardNNStream struct {
	shard int
	next  func() (nnHit, bool)
	stop  func()
	stats core.QueryStats
	err   error
	head  nnHit
}

func (s *Set) openShardNN(ctx context.Context, i int, p geom.Vec3) *shardNNStream {
	st := &shardNNStream{shard: i}
	st.next, st.stop = iter.Pull(func(yield func(nnHit) bool) {
		st.stats, st.err = s.shards[i].NN(ctx, p, func(e geom.Element, distSq float64) bool {
			return yield(nnHit{el: e, distSq: distSq})
		})
	})
	return st
}

// advance pulls the stream's next element surviving the staged deletes
// into head; false means the stream is exhausted (stats and err final).
func (st *shardNNStream) advance(dels deleteView) bool {
	for {
		h, ok := st.next()
		if !ok {
			return false
		}
		if dels.matches(h.el) {
			continue
		}
		st.head = h
		return true
	}
}

// NNQuery streams the indexed elements in nondecreasing distance from
// p, each with its exact squared distance, until emit returns false.
// k caps how many staged inserts are snapshotted (<= 0: all of them);
// it is a sizing hint only — the stream itself runs until stopped, so
// a caller wanting exactly k results stops after the k-th emit.
// Staged updates are overlaid exactly as in RangeQuery: staged deletes
// filter the bulk streams, surviving staged inserts merge in by
// distance (ranking after bulk elements at equal distance). The
// returned stats cover exactly the work performed — including shards
// opened but abandoned by an early stop — and Results counts the
// elements actually emitted.
func (s *Set) NNQuery(ctx context.Context, p geom.Vec3, k int, emit func(geom.Element, float64) bool) (merged core.QueryStats, err error) {
	s.pmu.RLock()
	dels := s.deleteViewLocked()
	staged, serr := s.stagedNearestLocked(p, k, dels)
	bounds := make([]geom.MBR, len(s.bounds))
	copy(bounds, s.bounds)
	s.pmu.RUnlock()
	if serr != nil {
		return core.QueryStats{}, serr
	}

	// The unopened shards, keyed by the bound distance the directory
	// proves: no element of shard i is closer than pending[j].distSq.
	type pendingShard struct {
		shard  int
		distSq float64
	}
	pending := make([]pendingShard, 0, len(bounds))
	for i, b := range bounds {
		pending = append(pending, pendingShard{shard: i, distSq: b.DistSqToPoint(p)})
	}

	var open []*shardNNStream
	emitted := 0
	defer func() {
		// Uniform teardown: stop whatever is still streaming and fold
		// its reads into the merged stats — an abandoned shard's work
		// must never be under-reported. stop is synchronous, so stats
		// are final when it returns; a stopped stream's error (group
		// cancellation surfacing as context.Canceled inside the crawl)
		// is deliberately not surfaced past the one already returned.
		for _, st := range open {
			st.stop()
			merged.Add(st.stats)
		}
		// Results counts set-level emissions, not the sum of what the
		// per-shard streams produced before delete filtering.
		merged.Results = emitted
	}()

	// retire folds an exhausted stream's outcome into the merge.
	retire := func(idx int) error {
		st := open[idx]
		open = append(open[:idx], open[idx+1:]...)
		merged.Add(st.stats)
		return st.err
	}

	for {
		if cerr := ctx.Err(); cerr != nil {
			return merged, cerr
		}

		// The global candidate: nearest buffered head, with staged
		// inserts losing ties to bulk shards.
		best, bestDist := -1, math.Inf(1)
		for idx, st := range open {
			if best == -1 || st.head.distSq < bestDist ||
				(st.head.distSq == bestDist && st.shard < open[best].shard) {
				best, bestDist = idx, st.head.distSq
			}
		}
		fromStaged := false
		if len(staged) > 0 && staged[0].distSq < bestDist {
			fromStaged, bestDist = true, staged[0].distSq
		}

		// Open the nearest pending shard if its bound could beat (or
		// tie) the candidate — anything strictly closer than the
		// candidate can only hide behind such a bound. With no
		// candidate at all, open the nearest shard unconditionally.
		pj, pDist := -1, math.Inf(1)
		for j, pd := range pending {
			if pj == -1 || pd.distSq < pDist ||
				(pd.distSq == pDist && pd.shard < pending[pj].shard) {
				pj, pDist = j, pd.distSq
			}
		}
		if pj >= 0 && ((best == -1 && !fromStaged) || pDist <= bestDist) {
			st := s.openShardNN(ctx, pending[pj].shard, p)
			pending = append(pending[:pj], pending[pj+1:]...)
			if st.advance(dels) {
				open = append(open, st)
			} else {
				merged.Add(st.stats)
				if st.err != nil {
					return merged, st.err
				}
			}
			continue
		}

		if best == -1 && !fromStaged {
			return merged, nil
		}
		if fromStaged {
			h := staged[0]
			staged = staged[1:]
			emitted++
			if !emit(h.el, h.distSq) {
				return merged, nil
			}
			continue
		}
		st := open[best]
		h := st.head
		emitted++
		if !emit(h.el, h.distSq) {
			return merged, nil
		}
		if !st.advance(dels) {
			if rerr := retire(best); rerr != nil {
				return merged, rerr
			}
		}
	}
}
