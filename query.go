package flat

import (
	"context"
	"errors"
	"iter"

	"flat/internal/geom"
	"flat/internal/shard"
)

// ErrConsumed is returned (through the iterator) when a Results session
// is iterated a second time: a session is one query execution, not a
// reusable container.
var ErrConsumed = errors.New("flat: query session already consumed")

// queryConfig is the resolved option set of one query session.
type queryConfig struct {
	limit int // > 0: stop the crawl after this many results
}

// QueryOption configures a Query session.
type QueryOption func(*queryConfig)

// WithLimit stops the query after k results have been emitted. The stop
// is a property of the crawl, not of the caller: the BFS abandons its
// frontier the moment the k-th element is delivered, so the pages the
// rest of the crawl would have read are never touched, and shards the
// stream never reaches are not queried at all.
// k <= 0 means unlimited.
func WithLimit(k int) QueryOption {
	return func(c *queryConfig) { c.limit = k }
}

// Query starts a streaming query session over q: a cancellable
// iterator that delivers elements incrementally, in the same
// deterministic order RangeQuery returns them. Nothing is read until
// the session is iterated (see Results). Between page reads the crawl
// checks ctx, so a deadline or cancellation aborts it mid-BFS with
// ctx.Err(); WithLimit stops it after k results, skipping the page
// reads the rest of the crawl would have cost.
//
// The crawl runs on the goroutine that drains the session: the
// surviving shards are crawled one after another in shard order, which
// is what lets WithLimit skip trailing shards entirely. To use several
// cores, drain several sessions at once, one per goroutine: they share
// the index's page cache, and each session's Stats counts only the page
// reads it caused. Safe for concurrent use.
func (ix *Index) Query(ctx context.Context, q MBR, opts ...QueryOption) *Results {
	return newResults(ctx, ix, q, false, opts)
}

// NN starts a streaming k-nearest-neighbor session around p: the
// returned Results delivers the k indexed elements nearest to p, in
// nondecreasing distance from it (distance between a point and an
// element is the minimum distance from the point to the element's MBR,
// zero when the box contains it). The traversal is best-first — a
// distance-ordered frontier over the same partition graph the range
// crawl walks — and terminates the moment the k-th result is proven
// nearest, so the page reads scale with k and the local data density,
// not with the index size. k <= 0 streams every element in distance
// order (stop by breaking out of the iteration); WithLimit composes by
// taking the smaller bound.
//
// The distance an element was ordered by is exactly
// el.Box.DistToPoint(p) — recompute it from the box when needed; no
// precision is lost in transit. Ties (equal distances) are broken
// deterministically.
//
// Every shard count runs the same single frontier: each shard is one
// item in it, keyed by the distance to its directory MBR (which
// lower-bounds everything inside it) and seeded only when that item
// surfaces — nothing whose bound exceeds the k-th result is read, in
// any shard, and a probe into a well-separated region touches one
// shard and never pays for the rest. Bulkloaded elements at exactly
// equal distance in different shards arrive in the frontier's
// discovery order: deterministic for a given index, but not by shard
// number. Staged updates are overlaid exactly as in Query: staged
// deletes filter the stream, staged inserts merge in at their own
// distances (losing ties to bulkloaded elements, matching the range
// path's staged-last order). A p with a NaN or infinite coordinate ends
// the session with an error. Safe for concurrent use.
func (ix *Index) NN(ctx context.Context, p Vec3, k int, opts ...QueryOption) *Results {
	r := newResults(ctx, ix, geom.PointBox(p), true, opts)
	// The effective bound is the smaller of k and WithLimit's positive
	// values (either alone when the other is unlimited).
	if k > 0 && (r.cfg.limit <= 0 || k < r.cfg.limit) {
		r.cfg.limit = k
	}
	return r
}

// RangeQuery returns every indexed element whose MBR intersects q,
// together with the query's page-read statistics — the merged
// per-shard statistics, the result in shard order. It is
// Query(context.Background(), q).Collect(), kept for callers that want
// the whole result as a slice; use Query to pass a context. Safe for
// concurrent use.
func (ix *Index) RangeQuery(q MBR) ([]Element, QueryStats, error) {
	return ix.Query(context.Background(), q).Collect()
}

// CountQuery returns the number of elements intersecting q without
// materializing them; the page access pattern is identical to
// RangeQuery. Safe for concurrent use.
func (ix *Index) CountQuery(q MBR) (int, QueryStats, error) {
	return ix.Query(context.Background(), q).count()
}

// PointQuery returns the elements whose MBR contains p. Safe for
// concurrent use.
func (ix *Index) PointQuery(p Vec3) ([]Element, QueryStats, error) {
	return ix.RangeQuery(geom.PointBox(p))
}

// Results is one streaming query session, created by Query or NN.
// Nothing happens until it is iterated: ranging
// over All drains the two-phase query incrementally, in the same
// deterministic order RangeQuery returns, and stops crawling — saving
// the remaining page reads — as soon as the caller breaks out or the
// session's limit is reached.
//
//	res := ix.Query(ctx, box, flat.WithLimit(100))
//	for el, err := range res.All() {
//		if err != nil { ... }
//		use(el)
//	}
//	cost := res.Stats()
//
// A session is single-use and belongs to one goroutine; Stats and Err
// are valid once the iteration has finished (drained, limited, broken
// out of, cancelled or failed).
type Results struct {
	ctx context.Context
	ix  *Index
	q   MBR  // an NN session's query point travels as the degenerate box geom.PointBox(p)
	nn  bool // distance-ordered NN session; otherwise a shard-ordered range stream
	cfg queryConfig

	started bool
	stats   QueryStats
	err     error
}

func newResults(ctx context.Context, ix *Index, q MBR, nn bool, opts []QueryOption) *Results {
	r := &Results{ctx: ctx, ix: ix, q: q, nn: nn}
	for _, opt := range opts {
		opt(&r.cfg)
	}
	return r
}

// run executes the session on the set's executor for its kind: the
// range stream, or the NN stream. Neither executor stops at the limit
// itself; All does.
func (r *Results) run(emit func(Element) bool) (QueryStats, error) {
	if r.nn {
		return r.ix.set.NNQuery(r.ctx, r.q.Min, r.cfg.limit, func(e Element, _ float64) bool { return emit(e) })
	}
	return r.ix.set.StreamQuery(r.ctx, r.q, shard.StreamOptions{}, emit)
}

// All returns the session's element stream as a range-able iterator.
// The yielded error is non-nil only on the terminal pair: a page-read
// failure, the context's error when the session's context is cancelled
// mid-crawl, or ErrClosed. The index's query guard is held for exactly
// the executor's run — every element is yielded from inside it — so
// Close and DropCache report ErrBusy while a session is being drained,
// never while one is merely held. The terminal error pair is yielded
// after the guard is released: a caller may Close from that loop body.
func (r *Results) All() iter.Seq2[Element, error] {
	return func(yield func(Element, error) bool) {
		if r.started {
			yield(Element{}, ErrConsumed)
			return
		}
		r.started = true
		abandoned := false
		r.err = r.ix.guard.query(func() (err error) {
			// Each element is yielded from inside the executor's emit
			// callback, on this goroutine.
			n := 0
			r.stats, err = r.run(func(e Element) bool {
				if !yield(e, nil) {
					abandoned = true
					return false
				}
				n++
				return r.cfg.limit <= 0 || n < r.cfg.limit
			})
			return err
		})
		if r.err != nil && !abandoned {
			yield(Element{}, r.err)
		}
	}
}

// Collect drains the session into a slice — the bridge the classic
// RangeQuery signature is a wrapper over.
func (r *Results) Collect() ([]Element, QueryStats, error) {
	var out []Element
	for e, err := range r.All() {
		if err != nil {
			return nil, r.stats, err
		}
		out = append(out, e)
	}
	return out, r.stats, nil
}

// count drains the session without materializing elements.
func (r *Results) count() (int, QueryStats, error) {
	n := 0
	for _, err := range r.All() {
		if err != nil {
			return 0, r.stats, err
		}
		n++
	}
	return n, r.stats, nil
}

// Stats reports the page-read statistics of the session's execution —
// the same per-query accounting RangeQuery returns. It is valid once
// the iteration has finished for any reason (drained, limit hit, broken
// out of, cancelled, failed) and covers exactly the work performed up
// to that point; before the iteration it is zero.
func (r *Results) Stats() QueryStats { return r.stats }

// Err reports the error the session terminated with, if any: the same
// error the iterator yielded on its terminal pair (nil after a clean
// drain or an early stop).
func (r *Results) Err() error { return r.err }
