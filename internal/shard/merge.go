// The sharded range executor.
//
// A range query on a sharded set crawls the surviving shards one after
// another, in shard order, on the caller's goroutine — that is what
// makes its emit order deterministic and what lets an early stop skip
// whole shards. StreamQuery is the only executor and this is its only
// shard visit: a shard's crawl calls the consumer's emit directly, with
// nothing concurrent or buffered in between. Several cores are used
// across queries (concurrent callers), not inside one.

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
// range executor; RangeQuery and CountQuery are collect and count sinks
// over it. Elements are handed to emit one at a time, and emit
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
	g, ins, dels := s.overlayFor(q)
	sink := &streamSink{dels: dels, emit: emit}
	push := sink.push // one bound method value for every shard
	var st core.QueryStats
	for _, sh := range g.prune(q) {
		sst, err := g.shards[sh].Query(ctx, q, push)
		st.Add(sst)
		if err != nil || sink.stopped {
			st.Results = sink.emitted
			return st, err
		}
	}
	for _, e := range ins {
		sink.emitted++
		if !emit(e) {
			break
		}
	}
	st.Results = sink.emitted
	return st, nil
}

// streamSink is the consumer side the shard crawls deliver bulkloaded
// elements into: the staged-delete filter, the count of elements
// actually emitted, and the consumer's stop.
type streamSink struct {
	dels    deleteView
	emit    func(geom.Element) bool
	emitted int
	stopped bool
}

// push delivers one bulkloaded element and reports whether the stream
// continues; it returns false only once the consumer has stopped.
func (k *streamSink) push(e geom.Element) bool {
	if k.dels.matches(e) {
		return true
	}
	k.emitted++
	k.stopped = !k.emit(e)
	return !k.stopped
}
