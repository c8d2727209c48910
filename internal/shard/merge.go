// The sharded range executor.
//
// A range query on a sharded set crawls the surviving shards one after
// another, in shard order, on the caller's goroutine — that is what
// makes its emit order deterministic and what lets an early stop skip
// whole shards. StreamRuns is the only executor and this is its only
// shard visit: a shard's crawl hands each object page's matches to the
// consumer's emit directly, with nothing concurrent or buffered in
// between. Several cores are used across queries (concurrent callers),
// not inside one. The staged delta is read from the pooled view k-NN
// takes too (delta.go): its deletes filter the crawl, and its matching
// inserts follow the last shard.

package shard

import (
	"context"

	"flat/internal/core"
	"flat/internal/geom"
)

// StreamOptions is reserved: it has no fields and selects nothing. It
// remains only because benchmark/ — frozen between benchmark PRs —
// passes the literal StreamOptions{} to StreamQuery; the next
// benchmark-archetype PR drops the parameter and this type with it.
type StreamOptions struct{}

// StreamRuns executes q as a cancellable push stream of runs — the one
// sharded range executor. Each run is the matches of one object page
// (core.Index.QueryRuns), handed to emit in one call, and emit
// returning false stops the query immediately: remaining shards are
// never visited and the current shard's crawl frontier is abandoned, so
// an early stop saves the page reads the rest of the query would have
// cost. The surviving shards are crawled strictly in shard order on the
// caller's goroutine (each shard's portion in its deterministic BFS
// order), which keeps the element order deterministic for a given set.
// The staged-update overlay is applied inline: deleted elements are
// compacted out of each run in place, and the staged inserts matching q
// follow the last shard as one run, in staging order. A run is valid
// only until emit returns, and an empty run is never emitted.
//
// The returned stats cover exactly the work performed, on error and
// cancellation too; Results counts the elements of the runs emitted. A
// done ctx aborts the crawl with ctx.Err(), but a stream that
// delivered its last run returns nil. The stream is one query (see
// Set.query): it reads one generation to the end, whatever Rebuild or
// Close does meanwhile, and after Close it returns ErrClosed without
// reading a page.
func (s *Set) StreamRuns(ctx context.Context, q geom.MBR, emit func([]geom.Element) bool) (st core.QueryStats, err error) {
	err = s.query(func(g *generation, v *view) error {
		emitted, stopped := 0, false
		push := func(run []geom.Element) bool {
			if run = v.dels.filter(run); len(run) == 0 {
				return true
			}
			emitted += len(run)
			stopped = !emit(run)
			return !stopped
		}
		for _, ix := range g.shards {
			if !ix.Bounds().Intersects(q) {
				continue
			}
			sst, err := ix.QueryRuns(ctx, q, push)
			st.Add(sst)
			if err != nil || stopped {
				st.Results = emitted
				return err
			}
		}
		if run := v.stagedHits(q); len(run) > 0 {
			emitted += len(run)
			emit(run)
		}
		st.Results = emitted
		return nil
	})
	return st, err
}

// StreamQuery is StreamRuns one element at a time: emit returning false
// stops the query at that element, and Results counts the elements
// emit saw.
func (s *Set) StreamQuery(ctx context.Context, q geom.MBR, _ StreamOptions, emit func(geom.Element) bool) (core.QueryStats, error) {
	unsent := 0
	st, err := s.StreamRuns(ctx, q, func(run []geom.Element) bool {
		for i := range run {
			if !emit(run[i]) {
				unsent = len(run) - i - 1
				return false
			}
		}
		return true
	})
	st.Results -= unsent
	return st, err
}
