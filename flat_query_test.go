package flat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"flat/internal/storage"
)

// queryTargets builds the index at K=1 and K=4 over the same elements,
// so every session property is checked at both shard counts.
func queryTargets(t *testing.T, n int) (els []Element, targets map[string]*Index) {
	t.Helper()
	r := rand.New(rand.NewSource(77))
	els = randomElements(r, n)
	orig := make([]Element, len(els))
	copy(orig, els)

	targets = make(map[string]*Index)
	for _, k := range []int{1, 4} {
		ix, err := Build(append([]Element(nil), orig...), &Options{Shards: k, pageCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		targets[fmt.Sprintf("K=%d", k)] = ix
	}
	return orig, targets
}

// TestQuerySessionMatchesRangeQuery pins the compatibility contract:
// draining a session yields exactly RangeQuery's elements, in the same
// order, with the same page-read statistics.
func TestQuerySessionMatchesRangeQuery(t *testing.T) {
	els, targets := queryTargets(t, 3000)
	r := rand.New(rand.NewSource(5))
	for name, ix := range targets {
		for i := 0; i < 12; i++ {
			c := V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
			q := CubeAt(c, 5+r.Float64()*25)
			want, wantStats, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			res := ix.Query(context.Background(), q)
			var got []Element
			for e, err := range res.All() {
				if err != nil {
					t.Fatalf("%s query %d: %v", name, i, err)
				}
				got = append(got, e)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d: session %d elements, RangeQuery %d", name, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s query %d: element %d differs: %v vs %v", name, i, j, got[j], want[j])
				}
			}
			if res.Stats() != wantStats {
				t.Fatalf("%s query %d: session stats %+v, RangeQuery %+v", name, i, res.Stats(), wantStats)
			}
			if res.Err() != nil {
				t.Fatalf("%s query %d: Err() = %v after clean drain", name, i, res.Err())
			}
		}
	}
	_ = els
}

// TestQueryWithLimitReadsFewerPages is the acceptance criterion of the
// redesign: a limited session on a selective box must read strictly
// fewer object pages — and strictly fewer pages overall — than the
// unbounded query, because the crawl aborts instead of finishing.
func TestQueryWithLimitReadsFewerPages(t *testing.T) {
	_, targets := queryTargets(t, 3000)
	// A box big enough to span many object pages (pageCapacity is 8).
	q := Box(V(10, 10, 10), V(60, 60, 60))
	for name, ix := range targets {
		// Every query counts its own cold reads, so the page-read counts
		// measure the crawls themselves.
		full, fullStats, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 20 {
			t.Fatalf("%s: test box too selective (%d results), cannot demonstrate limit savings", name, len(full))
		}
		res := ix.Query(context.Background(), q, WithLimit(3))
		n := 0
		for e, err := range res.All() {
			if err != nil {
				t.Fatal(err)
			}
			// The limited prefix must be the full result's prefix.
			if e != full[n] {
				t.Fatalf("%s: limited element %d = %v, want %v", name, n, e, full[n])
			}
			n++
		}
		if n != 3 {
			t.Fatalf("%s: WithLimit(3) delivered %d elements", name, n)
		}
		st := res.Stats()
		if st.Results != 3 {
			t.Fatalf("%s: limited stats.Results = %d, want 3", name, st.Results)
		}
		if st.Reads.Reads[storage.CatObject] >= fullStats.Reads.Reads[storage.CatObject] {
			t.Fatalf("%s: limited query read %d object pages, unbounded %d — limit saved nothing",
				name, st.Reads.Reads[storage.CatObject], fullStats.Reads.Reads[storage.CatObject])
		}
		if st.TotalReads >= fullStats.TotalReads {
			t.Fatalf("%s: limited query read %d pages, unbounded %d — limit saved nothing",
				name, st.TotalReads, fullStats.TotalReads)
		}
	}
}

// TestQueryCancelMidCrawl cancels the context after the first element
// and expects the session to terminate with ctx.Err() promptly — and
// the index to keep answering correctly afterwards.
func TestQueryCancelMidCrawl(t *testing.T) {
	_, targets := queryTargets(t, 3000)
	q := Box(V(10, 10, 10), V(60, 60, 60))
	for name, ix := range targets {
		want, wantStats, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		res := ix.Query(ctx, q)
		seen := 0
		var terminal error
		for _, err := range res.All() {
			if err != nil {
				terminal = err
				break
			}
			seen++
			cancel()
		}
		cancel()
		if !errors.Is(terminal, context.Canceled) {
			t.Fatalf("%s: cancelled session terminated with %v, want context.Canceled", name, terminal)
		}
		if !errors.Is(res.Err(), context.Canceled) {
			t.Fatalf("%s: Err() = %v, want context.Canceled", name, res.Err())
		}
		// Stats must already describe the performed work at the moment
		// the terminal error is observed (Collect relies on this).
		if res.Stats().Results < seen || res.Stats().Results == 0 {
			t.Fatalf("%s: stats at terminal error report %d results, consumer saw %d",
				name, res.Stats().Results, seen)
		}
		if seen == 0 || seen >= len(want) {
			t.Fatalf("%s: cancelled session delivered %d of %d elements — not a mid-crawl abort", name, seen, len(want))
		}
		if res.Stats().TotalReads >= wantStats.TotalReads {
			t.Fatalf("%s: cancelled session read %d pages, full query %d — crawl did not abort early",
				name, res.Stats().TotalReads, wantStats.TotalReads)
		}
		// The abort must leave the index consistent: the same query
		// answers identically afterwards.
		after, _, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(want) {
			t.Fatalf("%s: after cancellation RangeQuery returns %d elements, want %d", name, len(after), len(want))
		}
		for i := range after {
			if after[i] != want[i] {
				t.Fatalf("%s: result %d differs after cancellation", name, i)
			}
		}
	}
}

// TestQueryContextAlreadyDone runs every context-taking entry point of
// both shard counts with a context that is done before the query starts: the
// session and its Collect/count sinks must fail with the context's error
// without delivering anything.
func TestQueryContextAlreadyDone(t *testing.T) {
	_, targets := queryTargets(t, 1000)
	q := Box(V(0, 0, 0), V(100, 100, 100))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ix := range targets {
		res := ix.Query(ctx, q)
		for _, err := range res.All() {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: session yielded %v, want context.Canceled", name, err)
			}
		}
		if res.Stats().Results != 0 {
			t.Fatalf("%s: done-ctx session still delivered %d elements", name, res.Stats().Results)
		}
		if els, _, err := ix.Query(ctx, q).Collect(); !errors.Is(err, context.Canceled) || els != nil {
			t.Fatalf("%s: Collect = %d elements, %v, want none and context.Canceled", name, len(els), err)
		}
		if n, _, err := ix.Query(ctx, q).count(); !errors.Is(err, context.Canceled) || n != 0 {
			t.Fatalf("%s: count = %d, %v, want 0 and context.Canceled", name, n, err)
		}
	}
}

// TestQuerySessionAbandonReleasesGuard breaks out of a session
// mid-stream and verifies the session left the in-flight count (Close succeeds
// immediately) and the session started no goroutine: the crawl ran on
// this one.
func TestQuerySessionAbandonReleasesGuard(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ix, err := Build(randomElements(r, 2000), &Options{pageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	res := ix.Query(context.Background(), Box(V(0, 0, 0), V(100, 100, 100)))
	for _, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		break // abandon immediately
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("abandoned session left %d goroutines behind", after-before)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close after abandoned session: %v", err)
	}
}

// TestQuerySessionAbandonErrNil: breaking out of the iteration is an
// early stop, not an error, at both shard counts — Err() stays nil and
// Stats covers the one element delivered.
func TestQuerySessionAbandonErrNil(t *testing.T) {
	_, targets := queryTargets(t, 2000)
	for name, ix := range targets {
		res := ix.Query(context.Background(), Box(V(0, 0, 0), V(100, 100, 100)))
		for _, err := range res.All() {
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		if res.Err() != nil {
			t.Fatalf("%s: abandoned session Err() = %v, want nil", name, res.Err())
		}
		if st := res.Stats(); st.Results != 1 || st.TotalReads == 0 {
			t.Fatalf("%s: abandoned session stats %+v, want 1 result and the pages read for it", name, st)
		}
	}
}

// TestQuerySessionSingleUse pins that a Results is one execution: a
// second drain yields ErrConsumed.
func TestQuerySessionSingleUse(t *testing.T) {
	_, targets := queryTargets(t, 500)
	ix := targets["K=1"]
	res := ix.Query(context.Background(), Box(V(0, 0, 0), V(100, 100, 100)))
	if _, _, err := res.Collect(); err != nil {
		t.Fatal(err)
	}
	for _, err := range res.All() {
		if !errors.Is(err, ErrConsumed) {
			t.Fatalf("second drain yielded %v, want ErrConsumed", err)
		}
	}
}

// TestQuerySessionAfterClose: a session started on a closed index
// reports ErrClosed through the iterator, like every other query path.
func TestQuerySessionAfterClose(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ix, err := Build(randomElements(r, 200), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	res := ix.Query(context.Background(), Box(V(0, 0, 0), V(100, 100, 100)))
	saw := false
	for _, err := range res.All() {
		saw = true
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("session on closed index yielded %v, want ErrClosed", err)
		}
	}
	if !saw {
		t.Fatal("session on closed index yielded nothing; want terminal ErrClosed")
	}
}

// TestQuerySessionOverlay: sessions see staged inserts and deletes
// exactly like RangeQuery does (deletes filtered inline, inserts
// appended last), and WithLimit counts overlaid results.
func TestQuerySessionOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	els := randomElements(r, 1500)
	sx, err := Build(append([]Element(nil), els...), &Options{Shards: 3, pageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	q := Box(V(10, 10, 10), V(70, 70, 70))
	base, _, err := sx.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) < 4 {
		t.Fatalf("test box matches only %d elements", len(base))
	}
	// Delete one bulkloaded element inside q, insert two fresh ones.
	if err := sx.StageDelete(base[1].ID, base[1].Box); err != nil {
		t.Fatal(err)
	}
	fresh := []Element{
		{ID: 900001, Box: CubeAt(V(30, 30, 30), 1)},
		{ID: 900002, Box: CubeAt(V(40, 40, 40), 1)},
	}
	if err := sx.StageInsert(fresh...); err != nil {
		t.Fatal(err)
	}

	want, _, err := sx.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res := sx.Query(context.Background(), q)
	var got []Element
	for e, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != len(want) {
		t.Fatalf("session with overlay: %d elements, RangeQuery %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("overlay element %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	// A limited session delivers RangeQuery's prefix — the limit counts
	// elements that passed the delete filter — and a limit larger than
	// the bulkloaded hits still reaches the staged inserts (they stream
	// last).
	for _, limit := range []int{1, 4, len(want)} {
		res = sx.Query(context.Background(), q, WithLimit(limit))
		n := 0
		sawFresh := 0
		for e, err := range res.All() {
			if err != nil {
				t.Fatal(err)
			}
			if e != want[n] {
				t.Fatalf("limit %d: element %d = %v, want %v", limit, n, e, want[n])
			}
			if e.ID >= 900001 {
				sawFresh++
			}
			n++
		}
		if n != limit || res.Stats().Results != n {
			t.Fatalf("limit %d: delivered %d elements, stats.Results %d", limit, n, res.Stats().Results)
		}
		if limit == len(want) && sawFresh != len(fresh) {
			t.Fatalf("limited overlay drain: %d staged elements, want %d", sawFresh, len(fresh))
		}
	}
}

// TestQueryAbandonNotCancellation: a consumer break is a documented
// clean early stop, and must report Err() == nil even when the
// session's own context went done just before it. Both orders of
// (cancel, break) run at both shard counts.
func TestQueryAbandonNotCancellation(t *testing.T) {
	_, targets := queryTargets(t, 2000)
	q := Box(V(0, 0, 0), V(100, 100, 100))
	for name, ix := range targets {
		for _, cancelFirst := range []bool{true, false} {
			ctx, cancel := context.WithCancel(context.Background())
			res := ix.Query(ctx, q)
			for _, err := range res.All() {
				if err != nil {
					t.Fatalf("%s: first pair yielded %v", name, err)
				}
				if cancelFirst {
					cancel() // parent goes done first ...
				}
				break // ... and the consumer breaks: the clean stop must win
			}
			cancel()
			if res.Err() != nil {
				t.Fatalf("%s (cancel first: %v): abandoned session Err() = %v, want nil", name, cancelFirst, res.Err())
			}
		}
	}
}
