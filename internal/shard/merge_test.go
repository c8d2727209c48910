package shard

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

// collectStream drains a StreamQuery into a slice.
func collectStream(t *testing.T, s *Set, ctx context.Context, q geom.MBR) ([]geom.Element, core.QueryStats) {
	t.Helper()
	var out []geom.Element
	st, err := s.StreamQuery(ctx, q, StreamOptions{}, func(e geom.Element) bool {
		out = append(out, e)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// countStream drains a StreamQuery through a count sink.
func countStream(t *testing.T, s *Set, ctx context.Context, q geom.MBR) (int, core.QueryStats) {
	t.Helper()
	st, err := s.StreamQuery(ctx, q, StreamOptions{}, func(geom.Element) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return st.Results, st
}

// TestStreamQueryOrderParity pins the executor invariant: the stream
// is element-for-element the concatenation, in shard order, of the
// crawls of the shards Prune names, and on a full drain its statistics
// are theirs summed.
func TestStreamQueryOrderParity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	els := randomElements(r, 4000)
	for _, k := range []int{1, 4} {
		set, err := Build(append([]geom.Element(nil), els...), Config{Shards: k, PageCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range testQueries(rand.New(rand.NewSource(42)), 8) {
			set.DropCache()
			var want []geom.Element
			var wantStats core.QueryStats
			for _, sh := range set.Prune(q) {
				part, st, err := set.Shard(sh).RangeQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, part...)
				wantStats.Add(st)
			}
			set.DropCache()
			got, st := collectStream(t, set, context.Background(), q)
			if len(got) != len(want) {
				t.Fatalf("K=%d query %d: %d elements, the shard crawls %d", k, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("K=%d query %d: element %d = %v, the shard crawls %v — emit order diverged",
						k, qi, i, got[i], want[i])
				}
			}
			if st != wantStats {
				t.Fatalf("K=%d query %d: stats %+v, the shard crawls %+v", k, qi, st, wantStats)
			}
		}
		set.Close()
	}
}

// TestStreamQueryEarlyStopSkipsLaterShards is the acceptance criterion
// for early stops: a stream stopped on its first element must read no
// pages at all from any shard after the first surviving one. The cache
// starts cold and is unbounded, so the cached frames after the stream
// are exactly the pages it read — counted per shard via the page-id
// shard tag.
func TestStreamQueryEarlyStopSkipsLaterShards(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	els := randomElements(r, 6000)
	set, err := Build(append([]geom.Element(nil), els...), Config{Shards: 4, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	q := set.Bounds() // survives pruning on every shard
	sel := set.Prune(q)
	if len(sel) != 4 {
		t.Fatalf("query box survives on %d shards, want 4", len(sel))
	}

	set.DropCache()
	st, err := set.StreamQuery(context.Background(), q, StreamOptions{},
		func(geom.Element) bool { return false }) // stop on the first element
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	set.Pool().DropFramesIf(func(id storage.PageID) bool {
		sh, _ := storage.SplitShardPageID(id)
		seen[sh]++
		return false
	})
	if seen[sel[0]] == 0 {
		t.Fatal("the first surviving shard read no pages")
	}
	for _, sh := range sel[1:] {
		if seen[sh] != 0 {
			t.Fatalf("shard %d has %d cached frames — read after the stream stopped in shard %d", sh, seen[sh], sel[0])
		}
	}
	if st.TotalReads != uint64(seen[sel[0]]) {
		t.Fatalf("stats report %d reads, cache holds %d frames", st.TotalReads, seen[sel[0]])
	}
	if st.Results != 1 {
		t.Fatalf("stats.Results = %d, want 1", st.Results)
	}
}

// TestStreamQueryCancelMidMerge cancels the parent context while the
// stream is mid-flight: the stream must terminate with the context's
// error, report the partial work in its stats, and leave the shared
// cache consistent.
func TestStreamQueryCancelMidMerge(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	els := randomElements(r, 6000)
	set, err := Build(append([]geom.Element(nil), els...), Config{Shards: 4, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	q := set.Bounds()
	want, _ := collectStream(t, set, context.Background(), q)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set.DropCache()
	n := 0
	st, err := set.StreamQuery(ctx, q, StreamOptions{}, func(geom.Element) bool {
		n++
		if n == 3 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("cancelled stream returned %v, want context.Canceled", err)
	}
	if n >= len(want) || n < 3 {
		t.Fatalf("cancelled stream emitted %d of %d elements — not a mid-stream abort", n, len(want))
	}
	if st.TotalReads == 0 || st.Results != n {
		t.Fatalf("cancelled stream stats %+v after %d emits — partial work not reported", st, n)
	}

	after, _ := collectStream(t, set, context.Background(), q)
	if len(after) != len(want) {
		t.Fatalf("after the cancelled stream a drain returns %d elements, want %d", len(after), len(want))
	}
	for i := range after {
		if after[i] != want[i] {
			t.Fatalf("result %d differs after the cancelled stream", i)
		}
	}
}

// TestStreamQueryOverlayParity: with staged inserts and pending deletes
// in play, the collected stream equals brute force as a set, and the
// count sink agrees with it on the count and on every statistic, so it
// reads exactly the pages the collect sink does. K = 1 and K = 4.
func TestStreamQueryOverlayParity(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	els := randomElements(r, 3000)
	for _, k := range []int{1, 4} {
		set, err := Build(append([]geom.Element(nil), els...), Config{Shards: k, PageCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		base, _ := collectStream(t, set, context.Background(), set.Bounds())
		// Delete two bulkloaded elements and stage inserts spread over
		// the whole space, so with K > 1 they route to several shards.
		doomed := map[uint64]bool{}
		for _, d := range []geom.Element{base[1], base[len(base)/2]} {
			if err := set.StageDelete(d.ID, d.Box); err != nil {
				t.Fatal(err)
			}
			doomed[d.ID] = true
		}
		var live []geom.Element
		for _, e := range els {
			if !doomed[e.ID] {
				live = append(live, e)
			}
		}
		rr := rand.New(rand.NewSource(46))
		for i := 0; i < 12; i++ {
			c := geom.V(rr.Float64()*100, rr.Float64()*100, rr.Float64()*100)
			e := geom.Element{ID: uint64(800000 + i), Box: geom.CubeAt(c, 1)}
			if err := set.StageInsert(e); err != nil {
				t.Fatal(err)
			}
			live = append(live, e)
		}
		for qi, q := range append([]geom.MBR{set.World()}, testQueries(rr, 6)...) {
			set.DropCache()
			want, wantStats := collectStream(t, set, context.Background(), q)
			if !equalIDs(sortedIDs(want), brute(live, q)) {
				t.Fatalf("K=%d query %d: the stream diverges from brute force over the overlaid set", k, qi)
			}
			set.DropCache()
			n, countStats := countStream(t, set, context.Background(), q)
			if n != len(want) || countStats != wantStats {
				t.Fatalf("K=%d query %d: count sink %d, %+v; collect sink %d, %+v", k, qi, n, countStats, len(want), wantStats)
			}
		}
		set.Close()
	}
}

// TestStreamQueryDeliveredTailReturnsNil pins the terminal-error rule:
// a context that goes done while the very last element — here the last staged insert of the tail — is being
// delivered no longer matters; the stream is complete and returns nil.
func TestStreamQueryDeliveredTailReturnsNil(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	set, err := Build(randomElements(r, 3000), Config{Shards: 4, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i := 0; i < 3; i++ {
		if err := set.StageInsert(geom.Element{ID: uint64(700000 + i), Box: geom.CubeAt(geom.V(50, 50, 50), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	q := set.World()
	want, _ := collectStream(t, set, context.Background(), q)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	st, err := set.StreamQuery(ctx, q, StreamOptions{}, func(geom.Element) bool {
		if n++; n == len(want) {
			cancel()
		}
		return true
	})
	if err != nil || n != len(want) || st.Results != len(want) {
		t.Fatalf("fully delivered stream returned %v after %d of %d elements (stats %+v)", err, n, len(want), st)
	}
}

// TestStagedInsertOrderAcrossShards is the regression test for the
// cross-shard staging-order bug: inserts routed to different shards in
// interleaved order must come back in staging order — the documented
// contract — not grouped by shard.
func TestStagedInsertOrderAcrossShards(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	els := randomElements(r, 3000)
	set, err := Build(append([]geom.Element(nil), els...), Config{Shards: 4, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Alternate inserts between two far-apart corners so consecutive
	// stagings route to different shards.
	corners := []geom.MBR{
		geom.CubeAt(geom.V(2, 2, 2), 1),
		geom.CubeAt(geom.V(98, 98, 98), 1),
	}
	var wantIDs []uint64
	for i := 0; i < 10; i++ {
		id := uint64(900000 + i)
		if err := set.StageInsert(geom.Element{ID: id, Box: corners[i%2]}); err != nil {
			t.Fatal(err)
		}
		wantIDs = append(wantIDs, id)
	}
	// Precondition: the interleave really crossed shard groups —
	// otherwise this test cannot catch the bug.
	set.pmu.RLock()
	groups := 0
	for _, d := range set.staged.deltas {
		if len(d.slab) > 0 {
			groups++
		}
	}
	set.pmu.RUnlock()
	if groups < 2 {
		t.Fatalf("staged inserts landed in %d shard group(s); need >= 2 to exercise cross-shard ordering", groups)
	}

	check := func(name string, got []geom.Element) {
		t.Helper()
		if len(got) < len(wantIDs) {
			t.Fatalf("%s: only %d results", name, len(got))
		}
		tail := got[len(got)-len(wantIDs):]
		for i, e := range tail {
			if e.ID != wantIDs[i] {
				t.Fatalf("%s: staged insert %d has ID %d, want %d — staging order not preserved across shards",
					name, i, e.ID, wantIDs[i])
			}
		}
	}
	got, _ := collectStream(t, set, context.Background(), set.World())
	check("StreamQuery", got)
}

// pollCtx is a context whose Done channel closes after its Done method
// has been polled n times — a deterministic way to fail a query midway
// through its page reads (core polls ctx between reads).
type pollCtx struct {
	context.Context
	mu     sync.Mutex
	left   int
	ch     chan struct{}
	closed bool
}

func newPollCtx(n int) *pollCtx {
	return &pollCtx{Context: context.Background(), left: n, ch: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	if c.left <= 0 && !c.closed {
		close(c.ch)
		c.closed = true
	}
	return c.ch
}

func (c *pollCtx) Err() error {
	select {
	case <-c.ch:
		return context.Canceled
	default:
		return nil
	}
}

// TestQueryErrorKeepsPartialStats is the regression test for the
// dropped-stats bug: when a shard crawl fails midway, the collect and
// the count sink must still report the page reads performed — "stats
// cover exactly the work performed" — not a zero QueryStats.
func TestQueryErrorKeepsPartialStats(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	els := randomElements(r, 6000)
	set, err := Build(append([]geom.Element(nil), els...), Config{Shards: 4, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	q := set.Bounds()

	var out []geom.Element
	for name, run := range map[string]func(ctx context.Context) (core.QueryStats, error){
		"collect": func(ctx context.Context) (core.QueryStats, error) {
			return set.StreamQuery(ctx, q, StreamOptions{}, func(e geom.Element) bool { out = append(out, e); return true })
		},
		"count": func(ctx context.Context) (core.QueryStats, error) {
			return set.StreamQuery(ctx, q, StreamOptions{}, func(geom.Element) bool { return true })
		},
	} {
		set.DropCache()
		st, err := run(newPollCtx(12))
		if err == nil {
			t.Fatalf("%s: poll-limited ctx did not fail the query", name)
		}
		if st.TotalReads == 0 {
			t.Fatalf("%s: error %v came with zero stats — partial work dropped", name, err)
		}
	}
}

// TestStreamQueryAllocations pins the allocation count of a warm K=4
// range stream on an SN-sized and an LSS-sized box in three states: no
// staged delta, a delta the boxes miss, and a delta of at least four
// runs plus deletes that the boxes hit. The query scratch and the delta
// view come from pools with grown buffers, and every page is cached, so
// the stream allocates nothing in any state.
func TestStreamQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the query scratch at random")
	}
	r := rand.New(rand.NewSource(23))
	els := randomElements(r, 20000)
	set, err := Build(append([]geom.Element(nil), els...), Config{Shards: 4, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	c := geom.V(30, 60, 40)
	boxes := []geom.MBR{geom.CubeAt(c, 2), geom.CubeAt(c, 12)}
	var n, staged int
	emit := func(e geom.Element) bool {
		n++
		staged += int(e.ID >> 40)
		return true
	}
	measure := func(state string, wantStaged bool) {
		for _, q := range boxes {
			query := func() {
				n, staged = 0, 0
				if _, err := set.StreamQuery(context.Background(), q, StreamOptions{}, emit); err != nil {
					t.Fatal(err)
				}
			}
			query() // warm the pools and the pages
			if (staged > 0) != wantStaged {
				t.Fatalf("%s, box %v: %d of %d results staged", state, q, staged, n)
			}
			if a := testing.AllocsPerRun(50, query); a != 0 {
				t.Errorf("%s, box %v: %v allocations, want 0", state, q, a)
			}
		}
	}
	stage := func(at geom.Vec3, sizes ...int) {
		for _, size := range sizes {
			batch := make([]geom.Element, size)
			for i := range batch {
				batch[i] = geom.Element{ID: 1<<40 + uint64(r.Int63n(1<<30)), Box: geom.CubeAt(at.Add(geom.V(r.Float64(), r.Float64(), r.Float64())), 0.2)}
			}
			if err := set.StageInsert(batch...); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure("no delta", false)

	// A delta far from both boxes, with deletes of elements far from them.
	stage(geom.V(90, 10, 90), 8, 4)
	for _, e := range els[:10] {
		if !e.Box.Intersects(boxes[1]) {
			if err := set.StageDelete(e.ID, e.Box); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure("a delta the boxes miss", false)

	// Batches of 8, 4, 2 and 1 at the boxes' centre stay separate runs
	// (each is at least twice the next), and three bulkloaded elements in
	// the SN box are deleted.
	stage(c, 8, 4, 2, 1)
	var doomed []geom.Element
	for _, e := range els {
		if e.Box.Intersects(boxes[0]) && len(doomed) < 3 {
			doomed = append(doomed, e)
		}
	}
	for _, e := range doomed {
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	set.pmu.RLock()
	runs := 0
	for _, d := range set.staged.deltas {
		runs += len(d.runs)
	}
	set.pmu.RUnlock()
	if runs < 4 || len(doomed) == 0 {
		t.Fatalf("the staged delta holds %d runs and %d deletes in the SN box, want at least 4 and 1", runs, len(doomed))
	}
	got, _ := collectStream(t, set, context.Background(), boxes[0])
	for _, e := range got {
		if slices.Contains(doomed, e) {
			t.Fatalf("deleted element %v streamed", e)
		}
	}
	measure("a delta the boxes hit", true)
}
