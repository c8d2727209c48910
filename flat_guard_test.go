package flat

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCloseAndRebuildRefuseInFlightQueries runs the generation-swap
// hammer (testRebuildSwapsGenerations) on one shard in memory: Close and
// Rebuild beside in-flight queries refuse nothing — every Rebuild must
// fold and Close must succeed — and the readers' results stay
// consistent. The name is that of the contract it replaced, under which
// both returned ErrBusy while a query was in flight.
func TestCloseAndRebuildRefuseInFlightQueries(t *testing.T) {
	testRebuildSwapsGenerations(t, 1, "")
}

// TestRebuildRefusesInFlightQueries runs the hammer on four shards in
// memory, where one Rebuild may replace some shards and keep others, and
// requires every Rebuild beside the readers, the stager and the
// accessors to succeed. The name is that of the contract it replaced,
// under which Rebuild returned ErrBusy beside a live query.
func TestRebuildRefusesInFlightQueries(t *testing.T) {
	testRebuildSwapsGenerations(t, 4, "")
}

// TestStagingNeverMakesMaintenanceBusy runs the hammer on four shards in
// a directory: the stager and the DeltaStats/DirtyShards/Flush poller
// never make Rebuild or Close fail, a replaced generation's pagers are
// closed only once its last reader is done, and the directory reopens
// with every element that was staged, folded or not.
func TestStagingNeverMakesMaintenanceBusy(t *testing.T) {
	testRebuildSwapsGenerations(t, 4, filepath.Join(t.TempDir(), "idx"))
}

// testRebuildSwapsGenerations swaps generation after generation of a
// k-shard index (in dir, or in memory if dir is "") under live readers:
// each round stages one insert and calls Rebuild, which must succeed and
// fold it, while readers count a fixed workload, a stager stages inserts
// and a poller reads DeltaStats and DirtyShards and calls Flush. Only
// inserts are staged, so no reader's count for a query may ever fall.
// Close then runs beside all of them and must succeed; the readers and
// writers stop at the ErrClosed it makes every later call return. A
// directory must reopen with every element that was staged, folded or
// not. -race certifies that no swap or teardown races a reader.
func testRebuildSwapsGenerations(t *testing.T, k int, dir string) {
	r := rand.New(rand.NewSource(95))
	const n0, rounds = 2000, 20
	ix, err := Build(randomElements(r, n0), &Options{Shards: k, pageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	queries := queryWorkload(r, 10)
	base := make([]int, len(queries))
	for i, q := range queries {
		if base[i], _, err = ix.CountQuery(q); err != nil {
			t.Fatal(err)
		}
	}

	// Every goroutine stops at ErrClosed, which Close makes every later
	// query, staging call and Flush return; any other error fails.
	var (
		wg     sync.WaitGroup
		staged atomic.Int64
	)
	stopped := func(what string, err error) bool {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("%s: %v", what, err)
		}
		return err != nil
	}
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := slices.Clone(base)
			for {
				for i, q := range queries {
					n, st, err := ix.CountQuery(q)
					if stopped("CountQuery", err) {
						return
					}
					if st.Results != n {
						t.Errorf("CountQuery = %d, but its stats count %d", n, st.Results)
						return
					}
					if n < last[i] {
						t.Errorf("query %d counted %d after counting %d; only inserts are staged", i, n, last[i])
						return
					}
					last[i] = n
				}
				// The accessors read the generation Rebuild swaps.
				_, _, _, _ = ix.Len(), ix.Bounds(), ix.ShardGeneration(0), ix.SizeBytes()
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			c := V(float64(i%100), float64(i*7%100), float64(i*13%100))
			if stopped("StageInsert", ix.StageInsert(Element{ID: 100000 + i, Box: CubeAt(c, 1)})) {
				return
			}
			staged.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			_ = ix.DeltaStats()
			_ = ix.DirtyShards()
			if stopped("Flush", ix.Flush()) {
				return
			}
		}
	}()

	mine := make([]Element, rounds)
	for i := range mine {
		mine[i] = Element{ID: 900000 + uint64(i), Box: CubeAt(V(50, 50, 50), 1)}
		if err := ix.StageInsert(mine[i]); err != nil {
			t.Errorf("StageInsert: %v", err)
			break
		}
		if rebuilt, err := ix.Rebuild(); err != nil || len(rebuilt) == 0 {
			t.Errorf("Rebuild %d under live readers = %v, %v; want a fold", i, rebuilt, err)
			break
		}
	}
	// Everything this loop staged was folded and serves.
	got, _, err := ix.RangeQuery(CubeAt(V(50, 50, 50), 2))
	if err != nil {
		t.Error(err)
	}
	for _, e := range mine {
		if !slices.ContainsFunc(got, func(g Element) bool { return g.ID == e.ID }) {
			t.Errorf("folded insert %d is not queryable", e.ID)
			break
		}
	}
	if err := ix.Close(); err != nil {
		t.Errorf("Close beside readers and writers: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := n0 + rounds + int(staged.Load())
	if err := ix.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close: %v, want ErrClosed", err)
	}
	if _, _, err := ix.RangeQuery(queries[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("query after Close: %v, want ErrClosed", err)
	}
	if _, err := ix.Rebuild(); !errors.Is(err, ErrClosed) {
		t.Errorf("Rebuild after Close: %v, want ErrClosed", err)
	}
	if err := ix.StageDelete(1, CubeAt(V(0, 0, 0), 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("StageDelete after Close: %v, want ErrClosed", err)
	}
	if d := ix.DeltaStats(); ix.Len()+d.Inserts != want {
		t.Errorf("after Close: %d folded + %d staged elements, want %d", ix.Len(), d.Inserts, want)
	}
	t.Logf("%d folds under readers, %d inserts staged beside them", rounds, staged.Load())
	if dir == "" {
		return
	}
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, _, err := re.CountQuery(re.Bounds().Union(CubeAt(V(50, 50, 50), 100))); err != nil || n != want {
		t.Errorf("reopened index counts %d, %v; want %d", n, err, want)
	}
}

// TestAccessorsSurviveClose pins the documented lifecycle of the plain
// accessors: they keep returning correct values after Close instead of
// panicking or going stale, at one shard and at several, in memory and
// in a directory with a staged delta in its log.
func TestAccessorsSurviveClose(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	els := randomElements(r, 1000)

	for _, k := range []int{1, 3} {
		for _, dir := range []string{"", filepath.Join(t.TempDir(), "idx")} {
			ix, err := Build(append([]Element(nil), els...), &Options{Shards: k, pageCapacity: 16, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.StageInsert(Element{ID: 5000, Box: CubeAt(V(50, 50, 50), 1)}); err != nil {
				t.Fatal(err)
			}
			if err := ix.StageDelete(els[0].ID, els[0].Box); err != nil {
				t.Fatal(err)
			}
			last := k - 1
			wantLen, wantShards, wantParts, wantBounds := ix.Len(), ix.NumShards(), ix.NumPartitions(), ix.Bounds()
			wantHeight, wantSize := ix.SeedHeight(), ix.SizeBytes()
			wantShardBounds, wantGen := ix.ShardBounds(last), ix.ShardGeneration(last)
			wantDelta, wantDirty := ix.DeltaStats(), ix.DirtyShards()
			if wantDelta.Inserts != 1 || wantDelta.Deletes != 1 || (dir != "") != (wantDelta.WALBytes > 0) || len(wantDirty) == 0 {
				t.Fatalf("K=%d dir %q: before Close DeltaStats = %+v, DirtyShards = %v", k, dir, wantDelta, wantDirty)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if ix.Len() != wantLen || ix.NumShards() != wantShards || ix.NumPartitions() != wantParts || ix.Bounds() != wantBounds ||
				ix.SeedHeight() != wantHeight || ix.SizeBytes() != wantSize || ix.set.World() == (MBR{}) ||
				ix.ShardBounds(last) != wantShardBounds || ix.ShardGeneration(last) != wantGen {
				t.Fatalf("K=%d dir %q: accessors changed across Close", k, dir)
			}
			if d, dirty := ix.DeltaStats(), ix.DirtyShards(); d != wantDelta || !slices.Equal(dirty, wantDirty) {
				t.Fatalf("K=%d dir %q: DeltaStats %+v, DirtyShards %v after Close; before it %+v, %v", k, dir, d, dirty, wantDelta, wantDirty)
			}
			_ = ix.String() // must not panic either
		}
	}
}

// TestAccessorsRaceMaintenance drives the plain accessors concurrently
// with Close/Rebuild under -race: the set serializes them
// against Rebuild's state swaps.
func TestAccessorsRaceMaintenance(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	els := randomElements(r, 1500)
	sx, err := Build(append([]Element(nil), els...), &Options{Shards: 2, pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_ = sx.Len()
				_ = sx.Bounds()
				_ = sx.NumPartitions()
				_ = sx.ShardBounds(0)
				_ = sx.ShardGeneration(1)
				_ = sx.SizeBytes()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := sx.StageInsert(Element{ID: uint64(100000 + i), Box: CubeAt(V(50, 50, 50), 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := sx.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	// Accessors keep working through and after the teardown.
	if sx.Len() < len(els) {
		t.Fatalf("Len after maintenance storm: %d, want >= %d", sx.Len(), len(els))
	}
}

// TestAccessorsReadOneGeneration polls the accessors that sum over the
// shards while Rebuild publishes generation after generation: every
// PageCounts, SeedHeight and String answer must be one that a published
// generation gives, never a sum of shards from two generations.
func TestAccessorsReadOneGeneration(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ix, err := Build(randomElements(r, 4000), &Options{Shards: 4, pageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	type answer struct {
		pages  [3]int
		height int
		str    string
	}
	read := func() answer {
		o, m, s := ix.PageCounts()
		return answer{[3]int{o, m, s}, ix.SeedHeight(), ix.String()}
	}
	published := []answer{read()}
	var (
		polled = map[answer]bool{}
		stop   atomic.Bool
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		for !stop.Load() {
			polled[read()] = true
		}
	}()
	for round := range 30 {
		ins := randomElements(r, 50)
		for i := range ins {
			ins[i].ID = uint64(10000 + 50*round + i)
		}
		if err := ix.StageInsert(ins...); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Rebuild(); err != nil {
			t.Fatal(err)
		}
		published = append(published, read())
	}
	stop.Store(true)
	<-done
	pages, heights, strs := map[[3]int]bool{}, map[int]bool{}, map[string]bool{}
	for _, a := range published {
		pages[a.pages], heights[a.height], strs[a.str] = true, true, true
	}
	for a := range polled {
		if !pages[a.pages] {
			t.Fatalf("PageCounts %v is no published generation's (published: %v)", a.pages, pages)
		}
		if !heights[a.height] {
			t.Fatalf("SeedHeight %d is no published generation's (published: %v)", a.height, heights)
		}
		if !strs[a.str] {
			t.Fatalf("String %q is no published generation's", a.str)
		}
	}
}

// TestShardedCloseGuard closes a two-shard index in memory beside a
// parked session: Close succeeds at once, the session then finishes
// with every element of the generation it started on, and the next
// query reports ErrClosed.
func TestShardedCloseGuard(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	sx, err := Build(randomElements(r, 2000), &Options{Shards: 2, pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sx.RangeQuery(sx.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	release := parkQuery(t, sx)
	if err := sx.Close(); err != nil {
		t.Errorf("Close beside a parked query: %v", err)
	}
	if got := release(); !slices.Equal(got, want) {
		t.Errorf("parked query delivered %d elements after Close, want the %d it started on", len(got), len(want))
	}
	if _, _, err := sx.RangeQuery(sx.Bounds()); !errors.Is(err, ErrClosed) {
		t.Errorf("query after Close: %v, want ErrClosed", err)
	}
}

// TestParkedReaderOutlivesRebuildAndClose parks a session over a
// two-shard directory inside its first run, then stages inserts, rebuilds
// and closes the index under it: the session must finish with exactly
// what the index served before the Rebuild. With both shards rebuilt it
// reads pagers only its own generation holds; with one, it also reads
// the clean shard's pager, which the next generation shares and Close
// released.
func TestParkedReaderOutlivesRebuildAndClose(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	els := randomElements(r, 4000)
	for _, tc := range []struct {
		name  string
		dirty []int
	}{{"both shards rebuilt", []int{0, 1}}, {"one shard rebuilt", []int{0}}} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Build(slices.Clone(els), &Options{Shards: 2, pageCapacity: 16, Dir: filepath.Join(t.TempDir(), "idx")})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ix.RangeQuery(ix.Bounds())
			if err != nil {
				t.Fatal(err)
			}
			release := parkQuery(t, ix)
			for _, sh := range tc.dirty {
				if err := ix.StageInsert(insertRoutedTo(t, ix, sh)); err != nil {
					t.Fatal(err)
				}
			}
			if rebuilt, err := ix.Rebuild(); err != nil || !slices.Equal(rebuilt, tc.dirty) {
				t.Errorf("Rebuild beside a parked query = %v, %v; want %v", rebuilt, err, tc.dirty)
			}
			if err := ix.Close(); err != nil {
				t.Errorf("Close beside a parked query: %v", err)
			}
			if got := release(); !slices.Equal(got, want) {
				t.Errorf("parked query delivered %d elements, want the %d the index served before the Rebuild", len(got), len(want))
			}
		})
	}
}

// insertRoutedTo returns a new element that StageInsert routes to shard
// sh of a two-shard index: a copy, under a fresh ID, of one of sh's
// elements that the other shard's bounds do not contain, so only sh
// covers it without growing.
func insertRoutedTo(t *testing.T, ix *Index, sh int) Element {
	t.Helper()
	els, err := ix.set.Shard(sh).Elements()
	if err != nil {
		t.Fatal(err)
	}
	other := ix.ShardBounds(1 - sh)
	for _, e := range els {
		if !other.Contains(e.Box) {
			return Element{ID: 1<<40 + e.ID, Box: e.Box}
		}
	}
	t.Fatalf("every element of shard %d lies inside shard %d's bounds", sh, 1-sh)
	return Element{}
}

// parkQuery drains a real Query session over ix's bounds from another
// goroutine and parks it inside its first run — in flight, as a served
// query being streamed is — until the returned func is called; that
// func lets the session finish and returns every element it delivered.
func parkQuery(t *testing.T, ix *Index) (release func() []Element) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	type result struct {
		els []Element
		err error
	}
	done := make(chan result, 1)
	go func() {
		var got []Element
		res := ix.Query(context.Background(), ix.Bounds())
		for run, err := range res.Batches() {
			if err != nil {
				break
			}
			if got == nil {
				close(parked)
				<-unpark
			}
			got = append(got, run...)
		}
		done <- result{got, res.Err()}
	}()
	select {
	case <-parked:
	case r := <-done:
		t.Fatalf("query did not park: %v", r.err)
	}
	return func() []Element {
		close(unpark)
		r := <-done
		if r.err != nil {
			t.Errorf("parked query: %v", r.err)
		}
		return r.els
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: fn's panic did not propagate", what)
		}
	}()
	fn()
}

// TestGuardReleasesByConstruction pins what the set's one query helper
// gives for free, on a real index: a session releases its hold on the
// generation when it returns or panics, maintenance runs beside a parked
// session, and a closed index runs nothing.
func TestGuardReleasesByConstruction(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	els := randomElements(r, 1000)
	build := func(t *testing.T) *Index {
		ix, err := Build(append([]Element(nil), els...), &Options{Shards: 2, pageCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	extra := Element{ID: 5000, Box: CubeAt(V(50, 50, 50), 1)}
	ctx := context.Background()

	t.Run("panic leaves the guard free", func(t *testing.T) {
		ix := build(t)
		defer ix.Close()
		mustPanic(t, "range session", func() {
			for range ix.Query(ctx, ix.Bounds()).All() {
				panic("boom")
			}
		})
		mustPanic(t, "NN session", func() {
			for range ix.NN(ctx, V(50, 50, 50), 5).All() {
				panic("boom")
			}
		})
		if err := ix.StageInsert(extra); err != nil {
			t.Fatal(err)
		}
		if rebuilt, err := ix.Rebuild(); err != nil || len(rebuilt) == 0 {
			t.Fatalf("Rebuild after panicking consumers: %v, %v", rebuilt, err)
		}
		// Had either session kept its hold, Close would leave the pagers
		// open and a shard would still answer.
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		for sh := range ix.NumShards() {
			if _, err := ix.set.Shard(sh).QueryRuns(ctx, ix.Bounds(), func([]Element) bool { return true }); err == nil {
				t.Errorf("shard %d still reads after Close", sh)
			}
		}
	})

	t.Run("maintenance runs beside a parked query", func(t *testing.T) {
		ix := build(t)
		defer ix.Close()
		release := parkQuery(t, ix)
		if n, _, err := ix.CountQuery(ix.Bounds()); err != nil || n != len(els) {
			t.Errorf("second query beside a parked one: %d, %v; want %d", n, err, len(els))
		}
		if err := ix.StageInsert(extra); err != nil {
			t.Errorf("StageInsert beside a parked query: %v", err)
		}
		if err := ix.Flush(); err != nil {
			t.Errorf("Flush beside a parked query: %v", err)
		}
		if rebuilt, err := ix.Rebuild(); err != nil || len(rebuilt) == 0 {
			t.Errorf("Rebuild beside a parked query = %v, %v; want a fold", rebuilt, err)
		}
		if got := release(); len(got) != len(els) {
			t.Errorf("parked query delivered %d elements, want the %d it started on", len(got), len(els))
		}
	})

	t.Run("closed guard runs nothing", func(t *testing.T) {
		ix := build(t)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		ran := false
		for _, err := range ix.Query(ctx, ix.Bounds()).All() {
			if !errors.Is(err, ErrClosed) {
				ran = true
			}
		}
		if ran {
			t.Error("a range session on a closed index yielded an element")
		}
		if _, _, err := ix.RangeQuery(ix.Bounds()); !errors.Is(err, ErrClosed) {
			t.Errorf("RangeQuery after Close: %v, want ErrClosed", err)
		}
		if _, _, err := ix.NN(ctx, V(50, 50, 50), 5).Collect(); !errors.Is(err, ErrClosed) {
			t.Errorf("NN after Close: %v, want ErrClosed", err)
		}
		if _, err := ix.AvgNeighbors(); !errors.Is(err, ErrClosed) {
			t.Errorf("AvgNeighbors after Close: %v, want ErrClosed", err)
		}
		if err := ix.StageInsert(extra); !errors.Is(err, ErrClosed) {
			t.Errorf("StageInsert after Close: %v, want ErrClosed", err)
		}
		if err := ix.StageDelete(extra.ID, extra.Box); !errors.Is(err, ErrClosed) {
			t.Errorf("StageDelete after Close: %v, want ErrClosed", err)
		}
		if err := ix.Flush(); !errors.Is(err, ErrClosed) {
			t.Errorf("Flush after Close: %v, want ErrClosed", err)
		}
		if _, err := ix.Rebuild(); !errors.Is(err, ErrClosed) {
			t.Errorf("Rebuild after Close: %v, want ErrClosed", err)
		}
		if err := ix.Close(); !errors.Is(err, ErrClosed) {
			t.Errorf("second Close: %v, want ErrClosed", err)
		}
	})
}
