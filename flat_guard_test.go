package flat

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
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
	release := parkQuery(t, &ix.guard)
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
// panicking or going stale, at one shard and at several.
func TestAccessorsSurviveClose(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	els := randomElements(r, 1000)

	for _, k := range []int{1, 3} {
		ix, err := Build(append([]Element(nil), els...), &Options{Shards: k, pageCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		last := k - 1
		wantLen, wantShards, wantParts, wantBounds := ix.Len(), ix.NumShards(), ix.NumPartitions(), ix.Bounds()
		wantHeight, wantSize := ix.SeedHeight(), ix.SizeBytes()
		wantShardBounds, wantGen := ix.ShardBounds(last), ix.ShardGeneration(last)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		if ix.Len() != wantLen || ix.NumShards() != wantShards || ix.NumPartitions() != wantParts || ix.Bounds() != wantBounds ||
			ix.SeedHeight() != wantHeight || ix.SizeBytes() != wantSize || ix.World() == (MBR{}) ||
			ix.ShardBounds(last) != wantShardBounds || ix.ShardGeneration(last) != wantGen {
			t.Fatalf("K=%d: accessors changed across Close", k)
		}
		_ = ix.String() // must not panic either
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
	release := parkQuery(t, &sx.guard)
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

// parkQuery holds g's query side from another goroutine, as an
// in-flight query would, until the returned func is called; that func
// returns once the guard is free again.
func parkQuery(t *testing.T, g *queryGuard) (release func()) {
	t.Helper()
	parked, unpark, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- g.query(func() error {
			close(parked)
			<-unpark
			return nil
		})
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

// TestGuardReleasesByConstruction pins the contract the closure API gives
// for free: every side is released when fn returns — or panics — and a
// refused acquire never runs fn.
func TestGuardReleasesByConstruction(t *testing.T) {
	ran := func(ok *bool) func() error { return func() error { *ok = true; return nil } }

	t.Run("panic leaves the guard free", func(t *testing.T) {
		var g queryGuard
		mustPanic(t, "query", func() { _ = g.query(func() error { panic("boom") }) })
		// Had it leaked its read side, this TryLock would lose.
		var ok bool
		if err := g.maintain(ran(&ok)); err != nil || !ok {
			t.Fatalf("maintain after panicking query: err %v, ran %v", err, ok)
		}
		mustPanic(t, "maintain", func() { _ = g.maintain(func() error { panic("boom") }) })
		// Had maintain leaked the write side, this RLock would block and
		// a second maintain would report ErrBusy.
		ok = false
		if err := g.query(ran(&ok)); err != nil || !ok {
			t.Fatalf("query after panicking maintain: err %v, ran %v", err, ok)
		}
		if err := g.maintain(ran(&ok)); err != nil {
			t.Fatalf("maintain after panicking maintain: %v", err)
		}
	})

	t.Run("closed guard runs nothing", func(t *testing.T) {
		var g queryGuard
		if err := g.shutdown(); err != nil {
			t.Fatal(err)
		}
		var ok bool
		if err := g.query(ran(&ok)); !errors.Is(err, ErrClosed) || ok {
			t.Errorf("query on closed guard: err %v, ran %v", err, ok)
		}
		if err := g.maintain(ran(&ok)); !errors.Is(err, ErrClosed) || ok {
			t.Errorf("maintain on closed guard: err %v, ran %v", err, ok)
		}
	})

	t.Run("maintain is busy while a query is parked", func(t *testing.T) {
		var g queryGuard
		release := parkQuery(t, &g)
		var ok bool
		if err := g.maintain(ran(&ok)); !errors.Is(err, ErrBusy) || ok {
			t.Errorf("maintain beside a parked query: err %v, ran %v", err, ok)
		}
		if err := g.shutdown(); !errors.Is(err, ErrBusy) {
			t.Errorf("shutdown beside a parked query: %v, want ErrBusy", err)
		}
		if err := g.query(ran(&ok)); err != nil || !ok {
			t.Errorf("second query beside a parked one: err %v, ran %v", err, ok)
		}
		release()
		if err := g.maintain(ran(&ok)); err != nil {
			t.Errorf("maintain after the query drained: %v", err)
		}
	})
}
