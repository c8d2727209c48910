package flat

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// waitCompacted polls until the staged delta drains to zero (the
// background compactor has folded it in) or the deadline passes.
// Pending returns ErrBusy while the compactor's Rebuild holds the
// guard; that just means "in progress", so keep polling through it.
func waitCompacted(t *testing.T, sx *Index) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ins, dels, err := sx.Pending()
		if err == nil && ins == 0 && dels == 0 {
			return
		}
		if err != nil && !errors.Is(err, ErrBusy) {
			t.Fatalf("Pending: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("staged delta never drained: background compaction did not run")
}

// closeRetrying closes an index that runs a background compactor: a
// Rebuild of the compactor's that is still in flight — down to its
// release of the guard — refuses the Close with ErrBusy like any other
// maintenance, so the caller retries.
func closeRetrying(t *testing.T, sx *Index) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := sx.Close()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrBusy) || time.Now().After(deadline) {
			t.Fatalf("Close: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stagedAt returns n elements with ids from firstID up, all at box.
func stagedAt(box MBR, firstID uint64, n int) []Element {
	els := make([]Element, n)
	for i := range els {
		els[i] = Element{ID: firstID + uint64(i), Box: box}
	}
	return els
}

// TestAutoCompactMaxDelta drives the count trigger: staging past
// MaxDelta must fold the delta in without any manual Rebuild, and the
// folded state must serve queries and survive reopen.
func TestAutoCompactMaxDelta(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	els := randomElements(r, 1200)
	dir := filepath.Join(t.TempDir(), "autocompact")
	sx, err := Build(els, &Options{
		Shards: 4, PageCapacity: 16, Dir: dir,
		WAL:         true,
		AutoCompact: AutoCompact{MaxDelta: 16},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One staging call: a compaction cannot land between two of the
	// inserts and leave a remainder below the trigger behind.
	spot := CubeAt(V(30, 30, 30), 2)
	const fresh = 40
	if err := sx.StageInsert(stagedAt(spot, 800000, fresh)...); err != nil {
		t.Fatal(err)
	}
	waitCompacted(t, sx)

	n, _, err := sx.CountQuery(spot)
	if err != nil {
		t.Fatal(err)
	}
	if n < fresh {
		t.Fatalf("after auto-compaction CountQuery = %d, want >= %d", n, fresh)
	}
	if got := sx.Len(); got != len(els)+fresh {
		t.Fatalf("Len = %d, want %d (delta folded into base)", got, len(els)+fresh)
	}
	closeRetrying(t, sx)

	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != len(els)+fresh {
		t.Fatalf("reopened Len = %d, want %d", got, len(els)+fresh)
	}
	ins, dels, err := re.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if ins != 0 || dels != 0 {
		t.Fatalf("reopened Pending = (%d, %d), want (0, 0)", ins, dels)
	}
}

// TestAutoCompactDirtyRatio drives the per-shard ratio trigger on a
// memory-backed index (the compactor is independent of the WAL).
func TestAutoCompactDirtyRatio(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	els := randomElements(r, 2000)
	sx, err := Build(els, &Options{
		Shards: 4, PageCapacity: 16,
		AutoCompact: AutoCompact{DirtyRatio: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRetrying(t, sx)

	// ~100 inserts into one spot dirty a single shard well past 5% of
	// its ~500-element base.
	spot := CubeAt(V(10, 10, 10), 1)
	if err := sx.StageInsert(stagedAt(spot, 900000, 100)...); err != nil {
		t.Fatal(err)
	}
	waitCompacted(t, sx)
	if got := sx.Len(); got != len(els)+100 {
		t.Fatalf("Len = %d, want %d", got, len(els)+100)
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

// TestAutoCompactCloseRace closes the index while the compactor may be
// mid-Rebuild: a background Rebuild in flight refuses the Close like
// any maintenance (ErrBusy, nothing changed), and the Close that lands
// stops the compactor cleanly — no deadlock, no double fold — whatever
// state the race lands in. A refused Close leaves the compactor alive:
// what is staged afterwards still compacts.
func TestAutoCompactCloseRace(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	for round := 0; round < 5; round++ {
		els := randomElements(r, 400)
		sx, err := Build(els, &Options{
			Shards: 2, PageCapacity: 16,
			AutoCompact: AutoCompact{MaxDelta: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := sx.StageInsert(Element{ID: uint64(999000 + i), Box: CubeAt(V(5, 5, 5), 1)}); err != nil {
				t.Fatal(err)
			}
		}
		closeRetrying(t, sx)
	}

	sx, err := Build(randomElements(r, 400), &Options{Shards: 2, PageCapacity: 16, AutoCompact: AutoCompact{MaxDelta: 4}})
	if err != nil {
		t.Fatal(err)
	}
	release := parkQuery(t, &sx.guard)
	if err := sx.Close(); !errors.Is(err, ErrBusy) {
		t.Fatalf("Close beside a parked query: %v, want ErrBusy", err)
	}
	release()
	if err := sx.StageInsert(stagedAt(CubeAt(V(5, 5, 5), 1), 999100, 8)...); err != nil {
		t.Fatalf("StageInsert after a refused Close: %v", err)
	}
	waitCompacted(t, sx)
	if got := sx.Len(); got != 400+8 {
		t.Fatalf("Len after a refused Close and a compaction = %d, want %d", got, 400+8)
	}
	closeRetrying(t, sx)
}
