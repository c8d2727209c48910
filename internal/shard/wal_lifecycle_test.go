package shard

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flat/internal/geom"
)

// snapshotDir byte-copies every file of an index directory into a fresh
// location, simulating a kill -9: the live Set is never told, nothing
// is closed, and the copy is exactly what a crashed process leaves on
// disk at that instant.
func snapshotDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crashed")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func buildWALSet(t *testing.T, els []geom.Element, dir string) *Set {
	t.Helper()
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16, Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func queryIDs(t *testing.T, set *Set, q geom.MBR) []uint64 {
	t.Helper()
	els, _ := collectStream(t, set, context.Background(), q)
	return sortedIDs(els)
}

// TestWALKillAndReopen is the acceptance crash test: every staged
// update acknowledged by Flush must survive a kill -9 — the reopened
// index has them all pending, with query results identical to the
// pre-crash overlay, including a delete-then-reinsert whose
// last-op-wins ordering must survive replay.
func TestWALKillAndReopen(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	els := randomElements(r, 1500)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)

	spot := geom.CubeAt(geom.V(40, 40, 40), 3)
	fresh := make([]geom.Element, 25)
	for i := range fresh {
		fresh[i] = geom.Element{ID: 500000 + uint64(i), Box: spot}
	}
	if err := set.StageInsert(fresh...); err != nil {
		t.Fatal(err)
	}
	victim := els[7]
	if err := set.StageDelete(victim.ID, victim.Box); err != nil {
		t.Fatal(err)
	}
	// Delete-then-reinsert: last-op-wins must put it back after replay.
	flip := els[11]
	if err := set.StageDelete(flip.ID, flip.Box); err != nil {
		t.Fatal(err)
	}
	if err := set.StageInsert(flip); err != nil {
		t.Fatal(err)
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}

	queries := append(testQueries(r, 20), spot, victim.Box, flip.Box)
	want := make([][]uint64, len(queries))
	for i, q := range queries {
		want[i] = queryIDs(t, set, q)
	}
	wantDelta := set.DeltaStats()

	crashed := snapshotDir(t, dir) // kill -9: the live set is never closed

	re, err := OpenSet(crashed, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DeltaStats(); got.Inserts != wantDelta.Inserts || got.Deletes != wantDelta.Deletes {
		t.Fatalf("replayed DeltaStats = %d inserts, %d deletes, want %d and %d",
			got.Inserts, got.Deletes, wantDelta.Inserts, wantDelta.Deletes)
	}
	for i, q := range queries {
		if got := queryIDs(t, re, q); !equalIDs(got, want[i]) {
			t.Fatalf("query %d: replayed results diverge from pre-crash overlay", i)
		}
	}
	// And the replayed delta folds like a fresh one.
	if _, err := re.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := queryIDs(t, re, q); !equalIDs(got, want[i]) {
			t.Fatalf("query %d: post-fold results diverge", i)
		}
	}
	set.Close()
}

// TestWALUnflushedSurvivesCleanClose stages without any Flush and
// relies on Close's sync: a clean shutdown must never lose staged
// updates.
func TestWALUnflushedSurvivesCleanClose(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)
	if err := set.StageInsert(geom.Element{ID: 999999, Box: geom.CubeAt(geom.V(50, 50, 50), 1)}); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.DeltaStats(); d.Inserts != 1 || d.Deletes != 0 {
		t.Fatalf("DeltaStats = %d inserts, %d deletes, want 1 and 0", d.Inserts, d.Deletes)
	}
}

// TestWALTornTailRecovery truncates the log mid-record — a crash while
// an append was in flight — and expects replay to recover exactly the
// intact prefix and the index to open clean.
func TestWALTornTailRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)
	for i := 0; i < 10; i++ {
		if err := set.StageInsert(geom.Element{ID: 600000 + uint64(i), Box: geom.CubeAt(geom.V(20, 20, 20), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "wal.log")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the 8th record: 7 must survive.
	if err := os.Truncate(walPath, info.Size()-3*73+10); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.DeltaStats(); d.Inserts != 7 || d.Deletes != 0 {
		t.Fatalf("DeltaStats after torn tail = %d inserts, %d deletes, want 7 and 0", d.Inserts, d.Deletes)
	}
}

// TestWALBitFlipRecovery corrupts one byte inside a record's payload
// (silent media corruption) and expects the CRC to fence replay at the
// preceding record.
func TestWALBitFlipRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)
	for i := 0; i < 10; i++ {
		if err := set.StageInsert(geom.Element{ID: 610000 + uint64(i), Box: geom.CubeAt(geom.V(20, 20, 20), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in record 4's payload (8-byte magic, 73-byte records,
	// 8-byte record header before the payload).
	data[8+4*73+8+5] ^= 0x20
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.DeltaStats(); d.Inserts != 4 || d.Deletes != 0 {
		t.Fatalf("DeltaStats after bit flip = %d inserts, %d deletes, want 4 and 0", d.Inserts, d.Deletes)
	}
}

// TestWALRotationOnRebuild checks the commit-point rotation: Rebuild
// must retarget the manifest to a fresh generation log, drop the old
// one, and leave nothing to replay; updates staged after the fold go to
// the new log and survive their own crash.
func TestWALRotationOnRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	els := randomElements(r, 800)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)
	if err := set.StageInsert(geom.Element{ID: 700001, Box: geom.CubeAt(geom.V(30, 30, 30), 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Rebuild(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
		t.Fatalf("generation-0 wal.log not collected after rotation: %v", err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.WAL == "" || m.WAL == "wal.log" {
		t.Fatalf("manifest WAL = %q, want a rotated generation log", m.WAL)
	}
	if _, err := os.Stat(filepath.Join(dir, m.WAL)); err != nil {
		t.Fatalf("rotated log missing: %v", err)
	}

	// Post-fold staging lands in the new log and survives a crash.
	if err := set.StageInsert(geom.Element{ID: 700002, Box: geom.CubeAt(geom.V(31, 31, 31), 1)}); err != nil {
		t.Fatal(err)
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	crashed := snapshotDir(t, dir)
	re, err := OpenSet(crashed, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.DeltaStats(); d.Inserts != 1 || d.Deletes != 0 {
		t.Fatalf("DeltaStats after rotation crash = %d inserts, %d deletes, want 1 and 0: only the post-fold op", d.Inserts, d.Deletes)
	}
	set.Close()
}

// TestWALCrashBeforeManifestSwap models a rebuild dying after writing
// the next generation's files but before the manifest swap: the old
// manifest plus stray new-generation files. Opening must serve the old
// state with the acknowledged delta pending, and the next Rebuild must
// collect the strays.
func TestWALCrashBeforeManifestSwap(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	els := randomElements(r, 800)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)
	if err := set.StageInsert(geom.Element{ID: 710001, Box: geom.CubeAt(geom.V(35, 35, 35), 1)}); err != nil {
		t.Fatal(err)
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}

	crashed := snapshotDir(t, dir)
	set.Close()
	// The strays a mid-rebuild crash leaves behind: an orphan next-gen
	// page file and an orphan next-gen log, unreferenced by the manifest.
	for _, stray := range []string{"shard-0000.gen-9.flat", "wal.gen-9.log"} {
		if err := os.WriteFile(filepath.Join(crashed, stray), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := OpenSet(crashed, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.DeltaStats(); d.Inserts != 1 || d.Deletes != 0 {
		t.Fatalf("DeltaStats = %d inserts, %d deletes, want 1 and 0", d.Inserts, d.Deletes)
	}
	if _, err := re.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{"shard-0000.gen-9.flat", "wal.gen-9.log"} {
		if _, err := os.Stat(filepath.Join(crashed, stray)); !os.IsNotExist(err) {
			t.Fatalf("stray %s not collected by Rebuild: %v", stray, err)
		}
	}
}

// TestWALUpgradeOnOpen opens a log-less index with OpenOptions.WAL:
// the index gains a manifest-referenced log in place, and staged
// updates become crash-durable from then on.
func TestWALUpgradeOnOpen(t *testing.T) {
	r := rand.New(rand.NewSource(86))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(els, Config{Shards: 2, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertServesManifest(t, set, dir)
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := readManifest(dir); err != nil || m.WAL != "" {
		t.Fatalf("fresh log-less index: manifest WAL = %q, err = %v", m.WAL, err)
	}

	up, err := OpenSet(dir, OpenOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := readManifest(dir); err != nil || m.WAL == "" {
		t.Fatalf("after upgrade: manifest WAL = %q, err = %v", m.WAL, err)
	}
	assertServesManifest(t, up, dir)
	if err := up.StageInsert(geom.Element{ID: 720001, Box: geom.CubeAt(geom.V(45, 45, 45), 1)}); err != nil {
		t.Fatal(err)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	crashed := snapshotDir(t, dir)
	up.Close()

	// The manifest references the log now, so replay happens regardless
	// of the opener's WAL flag.
	re, err := OpenSet(crashed, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertServesManifest(t, re, crashed)
	if d := re.DeltaStats(); d.Inserts != 1 || d.Deletes != 0 {
		t.Fatalf("DeltaStats = %d inserts, %d deletes, want 1 and 0", d.Inserts, d.Deletes)
	}
}

// TestWALRequiresDir pins the configuration contract: a memory-backed
// build cannot ask for a write-ahead log.
func TestWALRequiresDir(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	if _, err := Build(randomElements(r, 50), Config{Shards: 2, WAL: true}); err == nil {
		t.Fatal("Build(WAL, no Dir) succeeded, want error")
	}
}

// TestWALMmapReplay opens the crashed snapshot through the mmap path:
// replay is pager-independent.
func TestWALMmapReplay(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)
	if err := set.StageInsert(geom.Element{ID: 740001, Box: geom.CubeAt(geom.V(65, 65, 65), 1)}); err != nil {
		t.Fatal(err)
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	crashed := snapshotDir(t, dir)
	set.Close()

	re, err := OpenSet(crashed, OpenOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.DeltaStats(); d.Inserts != 1 || d.Deletes != 0 {
		t.Fatalf("DeltaStats = %d inserts, %d deletes, want 1 and 0", d.Inserts, d.Deletes)
	}
	if got := queryIDs(t, re, geom.CubeAt(geom.V(65, 65, 65), 1)); len(got) == 0 || got[len(got)-1] != 740001 {
		t.Fatalf("mmap-replayed insert not served: %v", got)
	}
}

// TestWALAcknowledgedPrefixOnly stages two batches with a Flush between
// them, crashes, and expects at least the acknowledged first batch —
// and nothing torn: whatever replays is a clean prefix of the staged
// sequence.
func TestWALAcknowledgedPrefixOnly(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	els := randomElements(r, 600)
	dir := filepath.Join(t.TempDir(), "idx")
	set := buildWALSet(t, els, dir)

	for i := 0; i < 5; i++ {
		if err := set.StageInsert(geom.Element{ID: 750000 + uint64(i), Box: geom.CubeAt(geom.V(70, 70, 70), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 9; i++ {
		if err := set.StageInsert(geom.Element{ID: 750000 + uint64(i), Box: geom.CubeAt(geom.V(70, 70, 70), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// No second Flush: the tail 4 are unacknowledged. The OS may or may
	// not have them on disk; the guarantee is "at least the acknowledged
	// 5, in sequence order".
	crashed := snapshotDir(t, dir)
	set.Close()

	re, err := OpenSet(crashed, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	d := re.DeltaStats()
	if d.Inserts < 5 || d.Inserts > 9 || d.Deletes != 0 {
		t.Fatalf("DeltaStats = %d inserts, %d deletes, want 5..9 inserts", d.Inserts, d.Deletes)
	}
	var got []uint64 // the staged IDs only; the query can hit base data too
	for _, id := range queryIDs(t, re, geom.CubeAt(geom.V(70, 70, 70), 1)) {
		if id >= 750000 {
			got = append(got, id)
		}
	}
	if len(got) != d.Inserts {
		t.Fatalf("replayed %d inserts but query sees %d", d.Inserts, len(got))
	}
	for i, id := range got {
		if id != 750000+uint64(i) {
			t.Fatalf("replayed set is not a prefix: got[%d] = %d", i, id)
		}
	}
}
