package flat

import (
	"context"
	"math"

	"flat/internal/geom"
)

// joinBlockSize is how many outer elements a spatial join buffers
// before probing the inner index: one probe (an expanded range crawl)
// amortizes over this many elements, so the inner side is read
// O(|A| / joinBlockSize) times instead of once per element.
const joinBlockSize = 256

// JoinStats reports the cost of one spatial join: the page reads of
// the outer drain and of every inner probe (merged), how many probe
// blocks were formed, and how many pairs were emitted.
type JoinStats struct {
	// Outer is the page-read accounting of streaming the outer index.
	Outer QueryStats
	// Inner merges the page reads of every inner probe.
	Inner QueryStats
	// Blocks counts the inner probes (⌈outer elements / block⌉, fewer
	// on an early stop).
	Blocks int
	// Pairs counts the pairs actually emitted.
	Pairs int
}

// Join streams every pair (a, b) — a from outer, b from inner — whose
// boxes lie within maxDist of each other (box-to-box minimum distance;
// 0 joins on intersection/contact), in the outer index's deterministic
// stream order. pred, when non-nil, refines candidate pairs with exact
// geometry the boxes over-approximate (e.g. cylinder-to-mesh
// distance); it sees only pairs that already pass the box filter.
// emit returning false stops the join immediately — remaining pages on
// both sides are never read. A done ctx aborts between page reads with
// ctx.Err().
//
// The execution is a block-nested crawl-to-crawl join: the outer
// index streams once, in blocks; each block's union box, expanded by
// maxDist, becomes one range query on the inner index — the FLAT crawl
// makes that probe's cost proportional to the neighborhood's size, so
// joining two dense models never materializes either side. Self-joins
// (outer == inner) are fine; each unordered pair then appears twice
// (once per orientation) unless pred or emit filters by ID.
//
// The outer side should usually be the smaller (or sparser) index — it
// is drained in full, while the inner side only answers pruned
// neighborhood probes.
func Join(ctx context.Context, outer, inner *Index, maxDist float64, pred func(a, b Element) bool, emit func(a, b Element) bool) (JoinStats, error) {
	var st JoinStats
	if maxDist < 0 {
		maxDist = 0
	}
	maxDistSq := maxDist * maxDist

	block := make([]Element, 0, joinBlockSize)
	stopped := false
	// flush probes the inner index with the block's expanded union box
	// and tests every candidate pair exactly.
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		st.Blocks++
		probe := geom.EmptyMBR()
		for _, a := range block {
			probe = probe.Union(a.Box)
		}
		probe = probe.Expand(maxDist)
		res := inner.Query(ctx, probe)
		for b, err := range res.All() {
			if err != nil {
				st.Inner.Add(res.Stats())
				return err
			}
			for _, a := range block {
				if a.Box.DistSq(b.Box) > maxDistSq {
					continue
				}
				if pred != nil && !pred(a, b) {
					continue
				}
				st.Pairs++
				if !emit(a, b) {
					stopped = true
					break
				}
			}
			if stopped {
				break
			}
		}
		st.Inner.Add(res.Stats())
		block = block[:0]
		return nil
	}

	// The outer drain box is all of space: Bounds grows only at Rebuild,
	// so staged inserts can lie outside it.
	inf := math.Inf(1)
	outerRes := outer.Query(ctx, Box(V(-inf, -inf, -inf), V(inf, inf, inf)))
	for a, err := range outerRes.All() {
		if err != nil {
			st.Outer = outerRes.Stats()
			return st, err
		}
		block = append(block, a)
		if len(block) == joinBlockSize {
			if err := flush(); err != nil {
				st.Outer = outerRes.Stats()
				return st, err
			}
			if stopped {
				break
			}
		}
	}
	st.Outer = outerRes.Stats()
	if outerRes.Err() != nil {
		return st, outerRes.Err()
	}
	if !stopped {
		if err := flush(); err != nil {
			return st, err
		}
	}
	return st, nil
}
