// The sharded range executor.
//
// A range query on a sharded set delivers the surviving shards strictly
// in shard order — that is what makes its emit order deterministic and
// what lets an early stop skip whole shards. StreamQuery is the only
// executor; it visits the shards in one of two ways. Sequentially, on
// the caller's goroutine, is the default. With StreamOptions.Prefetch,
// up to P shard crawls run ahead of the consumer, each emitting into a
// bounded per-shard buffer, while the consumer still drains the buffers
// strictly in shard order: only the page reads overlap, the emit order
// is exactly the sequential one. That windowed visit is the one stream
// pipeline of the whole library — the public WithBuffer option is its
// Prefetch: 1 window, on a one-shard set as on any other. An early stop — the consumer's emit
// returning false, a done context, a failed shard — cancels the
// in-flight crawls as a group, waits for every one of them, and merges
// the page reads they performed into the returned QueryStats:
// prefetching must never under-report the work it actually did.

package shard

import (
	"context"

	"flat/internal/core"
	"flat/internal/geom"
)

// DefaultStreamBuffer is the per-shard buffer capacity (in elements) of
// a prefetching stream when StreamOptions.Buffer is unset.
const DefaultStreamBuffer = 32

// StreamOptions tunes Set.StreamQuery.
type StreamOptions struct {
	// Prefetch is the maximum number of shard crawls in flight at once.
	// <= 0 visits the surviving shards sequentially on the caller's
	// goroutine (the zero-goroutine default). 1 runs one crawl at a
	// time, pipelined a shard buffer ahead of the consumer; larger
	// values additionally crawl later shards while earlier ones are
	// drained. Values past the surviving shard count are clamped.
	Prefetch int
	// Buffer is the per-shard buffer capacity in elements of a
	// prefetching stream (<= 0: DefaultStreamBuffer). It bounds how far
	// a prefetched crawl can run ahead of the consumer: once a shard's
	// buffer is full its crawl blocks, so memory and wasted page reads
	// stay proportional to Prefetch × Buffer even when the stream is
	// abandoned early. Ignored when Prefetch <= 0.
	Buffer int
}

// StreamQuery executes q as a cancellable push stream — the one sharded
// range executor; RangeQuery and CountQuery are collect and count sinks
// over it. Elements are handed to emit one at a time, and emit
// returning false stops the query immediately: remaining shards are
// never visited and the current shard's crawl frontier is abandoned, so
// an early stop saves the page reads the rest of the query would have
// cost. The surviving shards are *delivered* strictly in shard order
// (each shard's portion in its deterministic BFS order), which keeps
// the emit order deterministic for a given set and is what lets an
// early stop skip whole shards. By default (the zero StreamOptions)
// they are also *visited* sequentially on the caller's goroutine;
// opts.Prefetch launches up to that many shard crawls ahead of the
// consumer, each filling a bounded buffer, without changing the emit
// order or, on a full drain, the page-read statistics. The
// staged-update overlay is applied inline: deleted elements are
// filtered out as they stream by, and staged inserts matching q are
// emitted last, in staging order.
//
// The returned stats cover exactly the work performed, on error and
// cancellation too; Results counts the elements actually emitted. A
// done ctx aborts the crawls with ctx.Err(), but a stream that
// delivered its last element returns nil.
func (s *Set) StreamQuery(ctx context.Context, q geom.MBR, opts StreamOptions, emit func(geom.Element) bool) (core.QueryStats, error) {
	ins, dels, err := s.overlayFor(q)
	if err != nil {
		return core.QueryStats{}, err
	}
	sel := s.Prune(q)
	sink := &streamSink{dels: dels, emit: emit}
	var st core.QueryStats
	if opts.Prefetch > 0 && len(sel) > 0 {
		st, err = s.visitWindowed(ctx, q, sel, opts, sink)
	} else {
		st, err = s.visitSequential(ctx, q, sel, sink)
	}
	if err == nil && !sink.stopped {
		for _, e := range ins {
			sink.emitted++
			if !emit(e) {
				break
			}
		}
	}
	st.Results = sink.emitted
	return st, err
}

// streamSink is the consumer side both shard-visit modes deliver
// bulkloaded elements into: the staged-delete filter, the count of
// elements actually emitted, and the consumer's stop.
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

// visitSequential crawls the surviving shards one after another on the
// caller's goroutine.
func (s *Set) visitSequential(ctx context.Context, q geom.MBR, sel []int, sink *streamSink) (core.QueryStats, error) {
	var st core.QueryStats
	push := sink.push // one bound method value for every shard
	for _, sh := range sel {
		sst, err := s.shards[sh].Query(ctx, q, push)
		st.Add(sst)
		if err != nil || sink.stopped {
			return st, err
		}
	}
	return st, nil
}

// shardStream is one prefetched shard crawl: the bounded channel the
// crawl emits into plus the outcome it finished with. stats and err are
// final once done is closed; ch is closed when the crawl stops emitting
// (completion, error, or group cancellation).
type shardStream struct {
	ch    chan geom.Element
	stats core.QueryStats
	err   error
	done  chan struct{}
}

// visitWindowed is the prefetching shard visit. It maintains a window
// of crawls over sel: when the consumer is draining sel[d], shards
// sel[d+1] .. sel[d+prefetch-1] are crawling into their buffers (never
// further — a limited session must not pay for shards beyond the
// window it abandoned). The deferred group teardown makes every exit
// path uniform: cancel whatever is still crawling, wait for every
// launched crawl, and fold its reads into the merged stats.
func (s *Set) visitWindowed(ctx context.Context, q geom.MBR, sel []int, opts StreamOptions, sink *streamSink) (merged core.QueryStats, err error) {
	prefetch := opts.Prefetch
	if prefetch > len(sel) {
		prefetch = len(sel)
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}

	// Every crawl hangs off one derived context, so a single cancel
	// stops the group; a crawl observes it at its next page read or
	// buffer send.
	mctx, cancel := context.WithCancel(ctx)

	streams := make([]*shardStream, len(sel))
	gathered := make([]bool, len(sel))
	launched := 0
	launch := func() {
		st := &shardStream{ch: make(chan geom.Element, buffer), done: make(chan struct{})}
		streams[launched] = st
		ix := s.shards[sel[launched]]
		launched++
		go func() {
			defer close(st.done)
			st.stats, st.err = ix.Query(mctx, q, func(e geom.Element) bool {
				select {
				case st.ch <- e:
					return true
				case <-mctx.Done():
					return false
				}
			})
			close(st.ch)
		}()
	}

	defer func() {
		cancel()
		for i := 0; i < launched; i++ {
			if gathered[i] {
				continue
			}
			<-streams[i].done
			merged.Add(streams[i].stats)
		}
	}()

	for launched < prefetch {
		launch()
	}
	for drain := 0; drain < launched; drain++ {
		st := streams[drain]
		for e := range st.ch {
			if !sink.push(e) {
				// The consumer's stop is a documented clean early exit; the
				// teardown absorbs the cancelled crawls' stats, and their
				// context.Canceled outcomes are deliberately not surfaced.
				return merged, nil
			}
		}
		// The channel closed, so the crawl is finished; absorb its
		// outcome before deciding whether to continue.
		<-st.done
		merged.Add(st.stats)
		gathered[drain] = true
		if st.err != nil {
			return merged, st.err
		}
		// The buffer wrapper maps group cancellation to an emit-false
		// stop, which the crawl reports as a clean nil-error finish; a
		// done parent context must still abort the stream with its
		// error (consumer stops, handled above, keep precedence).
		if cerr := ctx.Err(); cerr != nil {
			return merged, cerr
		}
		// Slide the window: keep prefetch crawls in flight past the
		// consumer's new position.
		for launched < len(sel) && launched <= drain+prefetch {
			launch()
		}
	}
	return merged, nil
}
