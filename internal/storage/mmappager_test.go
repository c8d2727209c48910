package storage_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"flat/internal/storage"
)

// writeTestFile builds a small page file via FilePager and returns its
// path and the page contents.
func writeTestFile(t *testing.T, pages int) (string, [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.flat")
	fp, err := storage.CreateFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	var contents [][]byte
	for i := 0; i < pages; i++ {
		id, err := fp.Alloc(storage.CatObject)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, storage.PageSize)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := fp.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		contents = append(contents, buf)
	}
	if err := fp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	return path, contents
}

func TestMmapPagerReadsAndFrames(t *testing.T) {
	path, contents := writeTestFile(t, 5)
	mp, err := storage.OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if mp.NumPages() != 5 {
		t.Fatalf("NumPages = %d, want 5", mp.NumPages())
	}
	dst := make([]byte, storage.PageSize)
	for i, want := range contents {
		id := storage.PageID(i)
		if err := mp.ReadPage(id, dst); err != nil {
			t.Fatal(err)
		}
		if string(dst) != string(want) {
			t.Fatalf("page %d content mismatch via ReadPage", i)
		}
		fr, err := mp.Frame(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(fr) != storage.PageSize || string(fr) != string(want) {
			t.Fatalf("page %d content mismatch via Frame", i)
		}
		// Frames alias the mapping: two calls return the same memory.
		fr2, _ := mp.Frame(id)
		if &fr[0] != &fr2[0] {
			t.Fatal("Frame returned a copy, not an alias")
		}
	}
	if _, err := mp.Frame(5); !errors.Is(err, storage.ErrPageOutOfRange) {
		t.Fatalf("out-of-range Frame: %v", err)
	}
	if err := mp.ReadPage(5, dst); !errors.Is(err, storage.ErrPageOutOfRange) {
		t.Fatalf("out-of-range ReadPage: %v", err)
	}
}

func TestMmapPagerReadOnly(t *testing.T) {
	path, _ := writeTestFile(t, 1)
	mp, err := storage.OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if _, err := mp.Alloc(storage.CatObject); !errors.Is(err, storage.ErrReadOnlyPager) {
		t.Fatalf("Alloc: %v", err)
	}
	if err := mp.WritePage(0, make([]byte, storage.PageSize)); !errors.Is(err, storage.ErrReadOnlyPager) {
		t.Fatalf("WritePage: %v", err)
	}
	if err := mp.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestMmapPagerCategories(t *testing.T) {
	path, _ := writeTestFile(t, 3)
	mp, err := storage.OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if cat := mp.CategoryOf(1); cat != storage.CatUnknown {
		t.Fatalf("fresh category = %v", cat)
	}
	mp.SetCategory(1, storage.CatMetadata)
	if cat := mp.CategoryOf(1); cat != storage.CatMetadata {
		t.Fatalf("category after set = %v", cat)
	}
	mp.SetCategory(99, storage.CatObject) // out of range: ignored
}

func TestMmapPagerBadSizes(t *testing.T) {
	dir := t.TempDir()
	odd := filepath.Join(dir, "odd.flat")
	if err := os.WriteFile(odd, make([]byte, storage.PageSize+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenMmapPager(odd); err == nil {
		t.Fatal("opened a file of non-page-multiple size")
	}
	empty := filepath.Join(dir, "empty.flat")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	mp, err := storage.OpenMmapPager(empty)
	if err != nil {
		t.Fatalf("empty file: %v", err)
	}
	if mp.NumPages() != 0 {
		t.Fatalf("empty file NumPages = %d", mp.NumPages())
	}
	if err := mp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenMmapPager(filepath.Join(dir, "missing.flat")); err == nil {
		t.Fatal("opened a missing file")
	}
}

// TestPoolOverMmap verifies the pool serves mmap-backed pages through
// the zero-copy frame path with the usual read accounting, and that the
// cached frame is the mapping itself, not a copy.
func TestPoolOverMmap(t *testing.T) {
	path, contents := writeTestFile(t, 4)
	mp, err := storage.OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	mp.SetCategory(2, storage.CatObject)

	pool := storage.NewConcurrentPool(mp, 2)
	var local storage.Stats
	got, err := pool.ReadInto(2, &local)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(contents[2]) {
		t.Fatal("pool read content mismatch")
	}
	fr, _ := mp.Frame(2)
	if &got[0] != &fr[0] {
		t.Fatal("pool copied an mmap frame instead of aliasing it")
	}
	if local.Reads[storage.CatObject] != 1 {
		t.Fatalf("tally after miss: %+v", local)
	}
	if _, err := pool.ReadInto(2, &local); err != nil {
		t.Fatal(err)
	}
	if local.Reads[storage.CatObject] != 1 {
		t.Fatal("cache hit was counted as a read")
	}
	if err := pool.Write(2, make([]byte, storage.PageSize)); !errors.Is(err, storage.ErrReadOnlyPager) {
		t.Fatalf("pool write over mmap: %v", err)
	}
	// The failed write must not have clobbered the cached (aliased) frame.
	again, _ := pool.Read(2)
	if string(again) != string(contents[2]) {
		t.Fatal("failed write corrupted the cached frame")
	}
}

// TestShardViewFrameForwarding checks Frame and SetCategory forwarding
// through the router — as a one-shard view and over several shards,
// including the mixed case where only some shards are frame-capable.
func TestShardViewFrameForwarding(t *testing.T) {
	path, contents := writeTestFile(t, 2)
	mp, err := storage.OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	mem := storage.NewMemPager()
	if _, err := mem.Alloc(storage.CatObject); err != nil {
		t.Fatal(err)
	}

	view1, err := storage.NewShardView(mp, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := view1.Frame(storage.ShardPageID(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(fr) != string(contents[1]) {
		t.Fatal("shard view frame content mismatch")
	}
	if _, err := view1.Frame(storage.ShardPageID(0, 1)); !errors.Is(err, storage.ErrPageOutOfRange) {
		t.Fatalf("foreign shard frame: %v", err)
	}
	view1.SetCategory(storage.ShardPageID(1, 1), storage.CatMetadata)
	view1.SetCategory(storage.ShardPageID(0, 0), storage.CatObject) // foreign shard: dropped
	if got, other := mp.CategoryOf(1), mp.CategoryOf(0); got != storage.CatMetadata || other != storage.CatUnknown {
		t.Fatalf("categories through the view = (%v, %v), want (metadata, unknown)", got, other)
	}

	view0, err := storage.NewShardView(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view0.Frame(storage.ShardPageID(0, 0)); !errors.Is(err, storage.ErrNoFrame) {
		t.Fatalf("mem-backed view frame: %v", err)
	}

	multi, err := storage.NewMultiPager([]storage.Pager{mem, mp})
	if err != nil {
		t.Fatal(err)
	}
	fr, err = multi.Frame(storage.ShardPageID(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(fr) != string(contents[0]) {
		t.Fatal("multi pager frame content mismatch")
	}
	if _, err := multi.Frame(storage.ShardPageID(0, 0)); !errors.Is(err, storage.ErrNoFrame) {
		t.Fatalf("mem-backed shard frame: %v", err)
	}
	if _, err := multi.Frame(storage.ShardPageID(7, 0)); !errors.Is(err, storage.ErrPageOutOfRange) {
		t.Fatalf("unrouted shard frame: %v", err)
	}
}
