// The sharded range executor.
//
// A range query on a sharded set crawls the surviving shards one after
// another, in shard order, on the caller's goroutine — that is what
// makes its emit order deterministic and what lets an early stop skip
// whole shards. StreamQuery is the only executor and this is its only
// shard visit: a shard's crawl calls the consumer's emit directly, with
// nothing concurrent or buffered in between. Several cores are used
// across queries (concurrent callers), not inside one. The staged delta
// is read from the pooled view k-NN takes too (delta.go): its deletes
// filter the crawl, and its matching inserts follow the last shard.

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

// StreamQuery executes q as a cancellable push stream — the one sharded
// range executor. Elements are handed to emit one at a time, and emit
// returning false stops the query immediately: remaining shards are
// never visited and the current shard's crawl frontier is abandoned, so
// an early stop saves the page reads the rest of the query would have
// cost. The surviving shards are crawled strictly in shard order on the
// caller's goroutine (each shard's portion in its deterministic BFS
// order), which keeps the emit order deterministic for a given set. The
// staged-update overlay is applied inline: deleted elements are
// filtered out as they stream by, and staged inserts matching q are
// emitted last, in staging order.
//
// The returned stats cover exactly the work performed, on error and
// cancellation too; Results counts the elements actually emitted. A
// done ctx aborts the crawl with ctx.Err(), but a stream that
// delivered its last element returns nil.
func (s *Set) StreamQuery(ctx context.Context, q geom.MBR, _ StreamOptions, emit func(geom.Element) bool) (core.QueryStats, error) {
	g, v := s.takeView()
	defer v.release()
	var st core.QueryStats
	emitted, stopped := 0, false
	push := func(e geom.Element) bool {
		if v.dels.matches(e) {
			return true
		}
		emitted++
		stopped = !emit(e)
		return !stopped
	}
	for _, ix := range g.shards {
		if !ix.Bounds().Intersects(q) {
			continue
		}
		sst, err := ix.Query(ctx, q, push)
		st.Add(sst)
		if err != nil || stopped {
			st.Results = emitted
			return st, err
		}
	}
	for _, si := range v.stagedHits(q) {
		emitted++
		if !emit(si.el) {
			break
		}
	}
	st.Results = emitted
	return st, nil
}
