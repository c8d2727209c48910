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
	"time"
)

// TestCloseAndRebuildRefuseInFlightQueries is the -race regression
// test for the Close/Rebuild footgun: while queries are running, both
// maintenance operations must refuse with ErrBusy instead of racing the
// readers, and queries must keep returning consistent results. After
// the queries drain, Close succeeds and everything reports ErrClosed.
func TestCloseAndRebuildRefuseInFlightQueries(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	els := randomElements(r, 4000)
	ix, err := Build(els, &Options{pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := queryWorkload(r, 10)

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		busySeen  atomic.Int64
		rebuildOK atomic.Int64
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, q := range queries {
					n, st, err := ix.CountQuery(q)
					if err != nil {
						t.Errorf("query failed during maintenance pressure: %v", err)
						return
					}
					if st.Results != n {
						t.Errorf("inconsistent stats under maintenance pressure")
						return
					}
				}
			}
		}()
	}
	// Hammer Rebuild while the queries run: every call must either
	// succeed atomically (no query held the guard at that instant) or
	// refuse with ErrBusy — never race the readers. -race certifies the
	// "never race" half; queries above certify results stay consistent.
	for i := 0; i < 200; i++ {
		if _, err := ix.Rebuild(); err != nil {
			if !errors.Is(err, ErrBusy) {
				t.Fatalf("Rebuild: %v", err)
			}
			busySeen.Add(1)
		} else {
			rebuildOK.Add(1)
		}
	}
	stop.Store(true)
	wg.Wait()

	if busySeen.Load() == 0 && rebuildOK.Load() == 0 {
		t.Fatal("maintenance loop never executed")
	}

	// Deterministic refusal: with a query provably in flight, both
	// maintenance operations return ErrBusy.
	release := parkQuery(t, ix)
	if err := ix.Close(); !errors.Is(err, ErrBusy) {
		t.Errorf("Close with query in flight: %v, want ErrBusy", err)
	}
	if _, err := ix.Rebuild(); !errors.Is(err, ErrBusy) {
		t.Errorf("Rebuild with query in flight: %v, want ErrBusy", err)
	}
	release()

	if err := ix.Close(); err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
	if err := ix.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close: %v, want ErrClosed", err)
	}
	if _, _, err := ix.RangeQuery(queries[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("query after Close: %v, want ErrClosed", err)
	}
	if _, err := ix.Rebuild(); !errors.Is(err, ErrClosed) {
		t.Errorf("Rebuild after Close: %v, want ErrClosed", err)
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
// against Rebuild's state swaps, and — holding no side of the query
// guard — they never make a maintenance operation report ErrBusy.
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

// The guard semantics hold at several shards too.
func TestShardedCloseGuard(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	els := randomElements(r, 2000)
	sx, err := Build(els, &Options{Shards: 2, pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := queryWorkload(r, 1)[0]

	// Hold a query open across the maintenance attempts below.
	release := parkQuery(t, sx)
	if err := sx.Close(); !errors.Is(err, ErrBusy) {
		t.Errorf("Close with query in flight: %v, want ErrBusy", err)
	}
	if _, err := sx.Rebuild(); !errors.Is(err, ErrBusy) {
		t.Errorf("Rebuild with query in flight: %v, want ErrBusy", err)
	}
	release()
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sx.RangeQuery(q); !errors.Is(err, ErrClosed) {
		t.Errorf("query after Close: %v, want ErrClosed", err)
	}
}

// parkQuery drains a real Query session over ix from another
// goroutine and parks it inside its first run — in flight, as a served
// query being streamed is — until the returned func is called; that
// func returns once the session has finished.
func parkQuery(t *testing.T, ix *Index) (release func()) {
	t.Helper()
	parked, unpark, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		res := ix.Query(context.Background(), ix.Bounds())
		for _, err := range res.Batches() {
			if err == nil {
				close(parked)
				<-unpark
			}
			break
		}
		done <- res.Err()
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("query did not park: %v", err)
	}
	return func() {
		close(unpark)
		if err := <-done; err != nil {
			t.Errorf("parked query: %v", err)
		}
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
// gives for free, on a real index: a session leaves the in-flight count
// when it returns or panics, a parked session holds back Close and
// Rebuild and nothing else, and a closed index runs nothing.
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
		// Had either session stayed in flight, Rebuild would report ErrBusy.
		if err := ix.StageInsert(extra); err != nil {
			t.Fatal(err)
		}
		if rebuilt, err := ix.Rebuild(); err != nil || len(rebuilt) == 0 {
			t.Fatalf("Rebuild after panicking consumers: %v, %v", rebuilt, err)
		}
	})

	t.Run("maintain is busy while a query is parked", func(t *testing.T) {
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
		if _, err := ix.Rebuild(); !errors.Is(err, ErrBusy) {
			t.Errorf("Rebuild beside a parked query: %v, want ErrBusy", err)
		}
		release()
		if _, err := ix.Rebuild(); err != nil {
			t.Errorf("Rebuild after the query drained: %v", err)
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

// TestStagingNeverMakesMaintenanceBusy pins what ErrBusy means: a query
// session being drained, and nothing else. With no query running, a
// stager and a poller of DeltaStats, DirtyShards and Flush keep the
// index busy for half a second while a loop calls Rebuild, and then
// Close; neither may report ErrBusy — they wait for the staging calls
// instead, as the staging calls wait for them.
func TestStagingNeverMakesMaintenanceBusy(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	ix, err := Build(randomElements(r, 4000), &Options{Shards: 2, Dir: filepath.Join(t.TempDir(), "idx")})
	if err != nil {
		t.Fatal(err)
	}
	// Each writer stops at ErrClosed, which Close makes every later
	// staging call and Flush return; any other error fails the test.
	var wg sync.WaitGroup
	stopped := func(what string, err error) bool {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("%s: %v", what, err)
		}
		return err != nil
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			c := V(float64(i%100), float64(i*7%100), float64(i*13%100))
			if stopped("StageInsert", ix.StageInsert(Element{ID: 100000 + i, Box: CubeAt(c, 1)})) {
				return
			}
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
	busy, calls, folds := 0, 0, 0
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; calls++ {
		rebuilt, err := ix.Rebuild()
		switch {
		case errors.Is(err, ErrBusy):
			busy++
		case err != nil:
			t.Errorf("Rebuild: %v", err)
		case len(rebuilt) > 0:
			folds++
		}
	}
	if err := ix.Close(); errors.Is(err, ErrBusy) {
		busy++
	} else if err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if busy > 0 {
		t.Fatalf("Rebuild and Close reported ErrBusy %d times in %d calls with no query in flight", busy, calls+1)
	}
	if folds == 0 {
		t.Fatal("no Rebuild folded a staged insert")
	}
	t.Logf("%d Rebuild calls beside the writers, %d of them folds; %d elements at Close", calls, folds, ix.Len())
}
