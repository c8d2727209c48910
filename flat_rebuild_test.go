package flat

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
	sx, err := Build(els, &Options{Shards: k, pageCapacity: 16, Dir: dir})
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
		st := sx.DeltaStats()
		if st.Inserts != len(fresh) || st.Deletes != 1 {
			t.Fatalf("DeltaStats = %d inserts, %d deletes, want %d and 1", st.Inserts, st.Deletes, len(fresh))
		}
		if dirty = sx.DirtyShards(); len(dirty) == 0 || len(dirty) > sx.NumShards() {
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
	if st := sx.DeltaStats(); st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("DeltaStats after rebuild = %+v, want nothing staged", st)
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
	if st := re.DeltaStats(); st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("DeltaStats after rebuild and reopen = %+v, want nothing staged", st)
	}
	if re.Len() != len(merged) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(merged))
	}
	checkQueries(re, "rebuilt and reopened")
}

// TestFlushAndDeltaStats exercises the staging accessors: DeltaStats
// must size the delta and the log, DirtyShards must name a shard, Flush
// must succeed, and a Rebuild must zero the delta, leave no shard dirty
// and shrink the rotated log.
func TestFlushAndDeltaStats(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "deltastats")
	sx, err := Build(els, &Options{
		Shards: 2, pageCapacity: 16, Dir: dir,
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

	st := sx.DeltaStats()
	if st.Inserts != len(fresh) || st.Deletes != 1 {
		t.Fatalf("DeltaStats = %+v, want %d inserts / 1 delete", st, len(fresh))
	}
	if st.WALBytes == 0 {
		t.Fatal("DeltaStats.WALBytes = 0, want the staged records on disk")
	}
	if dirty := sx.DirtyShards(); len(dirty) == 0 {
		t.Fatalf("DirtyShards = %v, want the shard the inserts route to", dirty)
	}

	if _, err := sx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	after := sx.DeltaStats()
	if after.Inserts != 0 || after.Deletes != 0 {
		t.Fatalf("post-Rebuild DeltaStats = %+v, want empty delta", after)
	}
	if dirty := sx.DirtyShards(); len(dirty) != 0 {
		t.Fatalf("post-Rebuild DirtyShards = %v, want none", dirty)
	}
	if after.WALBytes >= st.WALBytes {
		t.Fatalf("post-Rebuild WALBytes = %d, want < %d (log rotated)", after.WALBytes, st.WALBytes)
	}
}

// TestDirectoryIndexLogsByDefault builds into a directory with no other
// option, stages one insert and flushes it, then opens a byte copy of
// the directory taken as if the process were killed there: the copy
// replays the insert from the log, and a query returns it.
func TestDirectoryIndexLogsByDefault(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	dir := filepath.Join(t.TempDir(), "idx")
	ix, err := Build(randomElements(r, 500), &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	extra := Element{ID: 740001, Box: CubeAt(V(50, 50, 50), 1)}
	if err := ix.StageInsert(extra); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}

	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.Mkdir(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(crashed, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(crashed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.DeltaStats(); st.Inserts != 1 || st.WALBytes == 0 {
		t.Fatalf("reopened copy: DeltaStats = %+v; want 1 insert replayed from the log", st)
	}
	got, _, err := re.RangeQuery(extra.Box)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(got, func(e Element) bool { return e.ID == extra.ID }) {
		t.Fatalf("the flushed insert is missing from the reopened copy's %d results", len(got))
	}
}

// TestBuildFailureRemovesPartialFile: a disk build must not leave a
// partial page file (or a manifest) behind when the bulkload fails.
func TestBuildFailureRemovesPartialFile(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	els := randomElements(r, 100)
	dir := filepath.Join(t.TempDir(), "partial.flat")
	if _, err := Build(els, &Options{Dir: dir, pageCapacity: 100000}); err == nil {
		t.Fatal("build with absurd page capacity should fail")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("failed build left %v behind in %s (err: %v)", left, dir, err)
	}
}
