package flat

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedStagedUpdates drives the public staged-update cycle at one
// shard and at several: stage, query the overlay, flush, reopen (the
// log replays), rebuild, reopen.
func TestShardedStagedUpdates(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { testStagedUpdates(t, k) })
	}
}

func testStagedUpdates(t *testing.T, k int) {
	r := rand.New(rand.NewSource(96))
	els := randomElements(r, 3000)
	orig := append([]Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "staged")
	sx, err := Build(els, &Options{Shards: k, PageCapacity: 16, Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}

	// Stage a batch of inserts at one spot and one delete.
	fresh := make([]Element, 30)
	for i := range fresh {
		fresh[i] = Element{ID: 500000 + uint64(i), Box: CubeAt(V(25, 75, 25), 2)}
	}
	if err := sx.StageInsert(fresh...); err != nil {
		t.Fatal(err)
	}
	victim := orig[42]
	if err := sx.StageDelete(victim.ID, victim.Box); err != nil {
		t.Fatal(err)
	}
	checkStaged := func(sx *Index) (dirty []int) {
		t.Helper()
		st, err := sx.DeltaStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Inserts != len(fresh) || st.Deletes != 1 {
			t.Fatalf("DeltaStats = %d inserts, %d deletes, want %d and 1", st.Inserts, st.Deletes, len(fresh))
		}
		if dirty, err = sx.DirtyShards(); err != nil {
			t.Fatal(err)
		}
		if len(dirty) == 0 || len(dirty) > sx.NumShards() {
			t.Fatalf("DirtyShards = %v", dirty)
		}
		return dirty
	}
	checkStaged(sx)

	// The overlay serves reads before any rebuild.
	merged := make([]Element, 0, len(orig)+len(fresh))
	for _, e := range orig {
		if !(e.ID == victim.ID && e.Box == victim.Box) {
			merged = append(merged, e)
		}
	}
	merged = append(merged, fresh...)
	queries := append(queryWorkload(r, 15), CubeAt(V(25, 75, 25), 5))
	checkQueries := func(sx *Index, when string) {
		t.Helper()
		for i, q := range queries {
			got, st, err := sx.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(idsOf(got), apiBrute(merged, q)) {
				t.Fatalf("%s, query %d: results diverge from brute force", when, i)
			}
			checkStats(t, st, len(got))
			n, cst, err := sx.CountQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(got) {
				t.Errorf("%s, query %d: count %d != %d range results", when, i, n, len(got))
			}
			checkStats(t, cst, n)
		}
	}
	checkQueries(sx, "staged")

	// Flushed, the delta survives the process: a reopen replays the log
	// and the same updates are pending again.
	if err := sx.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}
	if sx, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	dirty := checkStaged(sx)
	checkQueries(sx, "replayed")

	// Rebuild folds the changes in; the index now reports them in Len.
	rebuilt, err := sx.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	// Every rebuilt shard was a dirty candidate (candidates whose
	// contents turn out unchanged may be skipped).
	if len(rebuilt) == 0 || len(rebuilt) > len(dirty) {
		t.Fatalf("Rebuild() = %v, DirtyShards candidates %v", rebuilt, dirty)
	}
	for _, s := range rebuilt {
		if !slices.Contains(dirty, s) {
			t.Fatalf("rebuilt shard %d was not a dirty candidate %v", s, dirty)
		}
		if sx.ShardGeneration(s) != 1 {
			t.Errorf("rebuilt shard %d at generation %d, want 1", s, sx.ShardGeneration(s))
		}
	}
	if st, err := sx.DeltaStats(); err != nil || st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("DeltaStats after rebuild = %+v, %v, want nothing staged", st, err)
	}
	if sx.Len() != len(merged) {
		t.Fatalf("Len after rebuild = %d, want %d", sx.Len(), len(merged))
	}
	checkQueries(sx, "rebuilt")
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebuilt state is what a fresh open sees.
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st, err := re.DeltaStats(); err != nil || st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("DeltaStats after rebuild and reopen = %+v, %v, want nothing staged", st, err)
	}
	if re.Len() != len(merged) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(merged))
	}
	checkQueries(re, "rebuilt and reopened")
}

// TestRebuildRefusesInFlightQueries pins the maintenance contract:
// Rebuild returns ErrBusy instead of racing live queries, while
// staging calls remain safe concurrently with them. -race certifies
// the "never race" half.
func TestRebuildRefusesInFlightQueries(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	els := randomElements(r, 3000)
	sx, err := Build(els, &Options{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := queryWorkload(r, 10)

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		busySeen atomic.Int64
		okSeen   atomic.Int64
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := uint64(600000 + g*10000)
			for !stop.Load() {
				for _, q := range queries {
					n, st, err := sx.CountQuery(q)
					if err != nil {
						t.Errorf("query during rebuild pressure: %v", err)
						return
					}
					if st.Results != n {
						t.Errorf("inconsistent stats under rebuild pressure")
						return
					}
				}
				// Staging is a query-side operation: legal while other
				// queries (and rebuild attempts) are in flight.
				if err := sx.StageInsert(Element{ID: id, Box: CubeAt(V(50, 50, 50), 1)}); err != nil {
					t.Errorf("StageInsert during queries: %v", err)
					return
				}
				id++
				// Accessors must not race a concurrent Rebuild either
				// (-race certifies it): Rebuild swaps the fields they read.
				_ = sx.Len()
				_ = sx.Bounds()
				_ = sx.ShardGeneration(0)
				_ = sx.SizeBytes()
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if _, err := sx.Rebuild(); err != nil {
			if !errors.Is(err, ErrBusy) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("Rebuild: %v", err)
			}
			busySeen.Add(1)
		} else {
			okSeen.Add(1)
		}
	}
	stop.Store(true)
	wg.Wait()
	if busySeen.Load() == 0 {
		t.Log("no Rebuild call collided with a query; contention untested this run")
	}
	// Deterministic coherence check once the dust settles: whatever the
	// goroutines staged plus one known element all fold in and serve.
	if err := sx.StageInsert(Element{ID: 777777, Box: CubeAt(V(50, 50, 50), 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if st, err := sx.DeltaStats(); err != nil || st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("DeltaStats after drain = %+v, %v, want nothing staged", st, err)
	}
	got, _, err := sx.RangeQuery(CubeAt(V(50, 50, 50), 2))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range got {
		found = found || e.ID == 777777
	}
	if !found {
		t.Error("folded-in staged element is not queryable")
	}

	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sx.Rebuild(); !errors.Is(err, ErrClosed) {
		t.Errorf("Rebuild after Close: %v, want ErrClosed", err)
	}
	if err := sx.StageInsert(Element{ID: 1, Box: CubeAt(V(0, 0, 0), 1)}); !errors.Is(err, ErrClosed) {
		t.Errorf("StageInsert after Close: %v, want ErrClosed", err)
	}
	if err := sx.StageDelete(1, CubeAt(V(0, 0, 0), 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("StageDelete after Close: %v, want ErrClosed", err)
	}
}

// TestFlushAndDeltaStats exercises the two staging accessors:
// DeltaStats must size the delta and the log, Flush must succeed, and
// a Rebuild must zero the delta and shrink the rotated log.
func TestFlushAndDeltaStats(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "deltastats")
	sx, err := Build(els, &Options{
		Shards: 2, PageCapacity: 16, Dir: dir, WAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()

	fresh := make([]Element, 12)
	for i := range fresh {
		fresh[i] = Element{ID: 700000 + uint64(i), Box: CubeAt(V(60, 60, 60), 2)}
	}
	if err := sx.StageInsert(fresh...); err != nil {
		t.Fatal(err)
	}
	if err := sx.StageDelete(els[0].ID, els[0].Box); err != nil {
		t.Fatal(err)
	}
	if err := sx.Flush(); err != nil {
		t.Fatal(err)
	}

	st, err := sx.DeltaStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != len(fresh) || st.Deletes != 1 {
		t.Fatalf("DeltaStats = %+v, want %d inserts / 1 delete", st, len(fresh))
	}
	if st.WALBytes == 0 {
		t.Fatal("DeltaStats.WALBytes = 0, want the staged records on disk")
	}
	if len(st.Shards) == 0 {
		t.Fatal("DeltaStats.Shards empty, want the dirty shard listed")
	}
	staged := 0
	for _, sh := range st.Shards {
		if sh.Base <= 0 {
			t.Fatalf("shard %d Base = %d, want > 0", sh.Shard, sh.Base)
		}
		staged += sh.Staged
	}
	if staged != len(fresh) {
		t.Fatalf("sum of per-shard Staged = %d, want %d", staged, len(fresh))
	}

	if _, err := sx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	after, err := sx.DeltaStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Inserts != 0 || after.Deletes != 0 || len(after.Shards) != 0 {
		t.Fatalf("post-Rebuild DeltaStats = %+v, want empty delta", after)
	}
	if after.WALBytes >= st.WALBytes {
		t.Fatalf("post-Rebuild WALBytes = %d, want < %d (log rotated)", after.WALBytes, st.WALBytes)
	}
}

// TestBuildFailureRemovesPartialFile: a disk build must not leave a
// partial page file (or a manifest) behind when the bulkload fails.
func TestBuildFailureRemovesPartialFile(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	els := randomElements(r, 100)
	dir := filepath.Join(t.TempDir(), "partial.flat")
	if _, err := Build(els, &Options{Dir: dir, PageCapacity: 100000}); err == nil {
		t.Fatal("build with absurd page capacity should fail")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("failed build left %v behind in %s (err: %v)", left, dir, err)
	}
}
