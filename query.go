package flat

import (
	"context"
	"errors"
	"iter"
	"sync"

	"flat/internal/geom"
)

// ErrConsumed is returned (through the iterator) when a Results session
// is iterated a second time: a session is one query execution, not a
// reusable container.
var ErrConsumed = errors.New("flat: query session already consumed")

// QueryOption configures a Query or NN session; WithLimit makes one.
// It is a plain value, not a function, so that applying it leaves the
// session where its caller put it: a session drained on the goroutine
// that started it stays on that goroutine's stack.
type QueryOption struct {
	limit int
}

// WithLimit stops the query after k results have been emitted. The stop
// is a property of the crawl, not of the caller: the BFS abandons its
// frontier the moment the k-th element is delivered, so the pages the
// rest of the crawl would have read are never touched, and shards the
// stream never reaches are not queried at all.
// k <= 0 means unlimited.
func WithLimit(k int) QueryOption {
	return QueryOption{limit: k}
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
// cores, drain several sessions at once, one per goroutine: each
// session's Stats counts the distinct pages it read, whatever runs
// beside it. Safe for concurrent use.
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
	if k > 0 && (r.limit <= 0 || k < r.limit) {
		r.limit = k
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
// session's limit is reached. Batches delivers the same stream a run
// at a time, for a consumer that handles elements in bulk.
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
	ctx     context.Context
	ix      *Index
	q       MBR  // an NN session's query point travels as the degenerate box geom.PointBox(p)
	nn      bool // distance-ordered NN session; otherwise a shard-ordered range stream
	started bool
	limit   int // > 0: stop the crawl after this many results

	stats QueryStats
	err   error
}

func newResults(ctx context.Context, ix *Index, q MBR, nn bool, opts []QueryOption) *Results {
	r := &Results{ctx: ctx, ix: ix, q: q, nn: nn}
	for _, opt := range opts {
		r.limit = opt.limit
	}
	return r
}

// nnRuns holds the one-element runs NN sessions deliver. A run inside
// the session would hand emit a pointer into the Results and move every
// session to the heap.
var nnRuns = sync.Pool{New: func() any { return new([1]Element) }}

// run executes the session on the set's executor for its kind: the
// range stream, whose runs are object pages' matches, or the NN stream,
// whose runs are single elements. Neither executor stops at the limit
// itself; Batches does.
func (r *Results) run(emit func([]Element) bool) (QueryStats, error) {
	if r.nn {
		one := nnRuns.Get().(*[1]Element)
		defer nnRuns.Put(one)
		return r.ix.set.NNQuery(r.ctx, r.q.Min, r.limit, func(e Element, _ float64) bool {
			one[0] = e
			return emit(one[:])
		})
	}
	return r.ix.set.StreamRuns(r.ctx, r.q, emit)
}

// Batches returns the session's element stream as a range-able
// iterator of runs, in the order All yields the elements: a range
// session yields the matches of one object page at a time, an NN
// session one element at a time. A run is valid only until the next
// iteration: copy what must outlive it. The session's limit truncates
// the last run. The yielded error is non-nil only on the terminal pair
// (with a nil run), exactly as in All, and the session is in flight the
// same way: every run is yielded from inside the executor's run, the
// terminal error after the executor has returned.
func (r *Results) Batches() iter.Seq2[[]Element, error] {
	return func(yield func([]Element, error) bool) {
		if r.started {
			yield(nil, ErrConsumed)
			return
		}
		r.started = true
		abandoned := false
		n := 0 // elements yielded
		r.stats, r.err = r.run(func(run []Element) bool {
			if left := r.limit - n; r.limit > 0 && len(run) > left {
				run = run[:left]
			}
			n += len(run)
			if !yield(run, nil) {
				abandoned = true
				return false
			}
			return r.limit <= 0 || n < r.limit
		})
		r.stats.Results = n
		if r.err != nil && !abandoned {
			yield(nil, r.err)
		}
	}
}

// All returns the session's element stream as a range-able iterator
// over Batches. The yielded error is non-nil only on the terminal pair:
// a page-read failure, the context's error when the session's context
// is cancelled mid-crawl, or ErrClosed. The session reads one
// generation for exactly the executor's run — every element is yielded
// from inside it — so a Close or Rebuild from the loop body, or from
// another goroutine, leaves the elements still to come as they were.
// Breaking out counts the element broken on as delivered.
func (r *Results) All() iter.Seq2[Element, error] {
	return func(yield func(Element, error) bool) {
		unsent := 0 // elements of the last run the caller broke out before
	runs:
		for run, err := range r.Batches() {
			if err != nil {
				yield(Element{}, err)
				return
			}
			for i := range run {
				if !yield(run[i], nil) {
					unsent = len(run) - i - 1
					break runs
				}
			}
		}
		r.stats.Results -= unsent
	}
}

// Collect drains the session into a slice — the bridge the classic
// RangeQuery signature is a wrapper over.
func (r *Results) Collect() ([]Element, QueryStats, error) {
	var out []Element
	for run, err := range r.Batches() {
		if err != nil {
			return nil, r.stats, err
		}
		out = append(out, run...)
	}
	return out, r.stats, nil
}

// count drains the session without materializing elements.
func (r *Results) count() (int, QueryStats, error) {
	n := 0
	for run, err := range r.Batches() {
		if err != nil {
			return 0, r.stats, err
		}
		n += len(run)
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
