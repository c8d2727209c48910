package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

// pagerRoundTrip exercises any Pager implementation.
func pagerRoundTrip(t *testing.T, p Pager) {
	t.Helper()
	if p.NumPages() != 0 {
		t.Fatalf("new pager has %d pages", p.NumPages())
	}
	id0, err := p.Alloc(CatObject)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := p.Alloc(CatMetadata)
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d, %d; want 0, 1", id0, id1)
	}
	if p.NumPages() != 2 {
		t.Fatalf("NumPages = %d", p.NumPages())
	}
	if got := p.CategoryOf(id0); got != CatObject {
		t.Errorf("CategoryOf(0) = %v", got)
	}
	if got := p.CategoryOf(id1); got != CatMetadata {
		t.Errorf("CategoryOf(1) = %v", got)
	}

	src := make([]byte, PageSize)
	r := rand.New(rand.NewSource(7))
	r.Read(src)
	if err := p.WritePage(id1, src); err != nil {
		t.Fatal(err)
	}
	dst, err := p.ReadPage(id1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("page roundtrip mismatch")
	}
	// The page handed out is immutable: a rewrite leaves it as it was.
	if err := p.WritePage(id1, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("a rewrite changed a page read before it")
	}
	// Fresh pages read back as zeroes.
	fresh, err := p.ReadPage(id0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, make([]byte, PageSize)) {
		t.Fatal("fresh page not zeroed")
	}

	// Out-of-range access fails.
	if _, err := p.ReadPage(99); err == nil {
		t.Error("read out of range succeeded")
	}
	if err := p.WritePage(99, src); err == nil {
		t.Error("write out of range succeeded")
	}
	// Short buffers fail.
	if err := p.WritePage(id0, make([]byte, 10)); err == nil {
		t.Error("short write buffer accepted")
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestMemPagerRoundTrip(t *testing.T) {
	p := NewMemPager()
	defer p.Close()
	pagerRoundTrip(t, p)
}

func TestFilePagerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pagerRoundTrip(t, p)
}

func TestFilePagerReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, PageSize)
	for i := 0; i < 3; i++ {
		id, err := p.Alloc(CatRTreeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		src[0] = byte(i + 1)
		if err := p.WritePage(id, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumPages() != 3 {
		t.Fatalf("reopened NumPages = %d, want 3", q.NumPages())
	}
	for i := 0; i < 3; i++ {
		dst, err := q.ReadPage(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if dst[0] != byte(i+1) {
			t.Errorf("page %d content = %d", i, dst[0])
		}
		// Categories are not persisted.
		if q.CategoryOf(PageID(i)) != CatUnknown {
			t.Errorf("reopened category should be unknown")
		}
	}
}

// TestFilePagerUnwrittenPages pins Alloc's contract now that it writes
// nothing: of three pages only the middle one is written, the last is
// past the end of the file until Sync extends it, and after a reopen the
// file holds three pages with the first and last all zero.
func TestFilePagerUnwrittenPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Alloc(CatObject); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.Repeat([]byte{7}, PageSize)
	if err := p.WritePage(1, src); err != nil {
		t.Fatal(err)
	}
	dst, err := p.ReadPage(2)
	if err != nil {
		t.Fatalf("read of an allocated page past the end of the file: %v", err)
	}
	if !bytes.Equal(dst, make([]byte, PageSize)) {
		t.Error("an allocated page past the end of the file did not read as zeros")
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumPages() != 3 {
		t.Fatalf("reopened NumPages = %d, want 3", q.NumPages())
	}
	for id, want := range [][]byte{make([]byte, PageSize), src, make([]byte, PageSize)} {
		dst, err := q.ReadPage(PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Errorf("page %d after reopen: first byte %d, want %d", id, dst[0], want[0])
		}
	}
}
