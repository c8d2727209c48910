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
	dst := make([]byte, PageSize)
	if err := p.ReadPage(id1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("page roundtrip mismatch")
	}
	// Fresh pages read back as zeroes.
	if err := p.ReadPage(id0, dst); err != nil {
		t.Fatal(err)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}

	// Out-of-range access fails.
	if err := p.ReadPage(99, dst); err == nil {
		t.Error("read out of range succeeded")
	}
	if err := p.WritePage(99, src); err == nil {
		t.Error("write out of range succeeded")
	}
	// Short buffers fail.
	if err := p.ReadPage(id0, make([]byte, 10)); err == nil {
		t.Error("short read buffer accepted")
	}
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

	q, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumPages() != 3 {
		t.Fatalf("reopened NumPages = %d, want 3", q.NumPages())
	}
	dst := make([]byte, PageSize)
	for i := 0; i < 3; i++ {
		if err := q.ReadPage(PageID(i), dst); err != nil {
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
	q.SetCategory(1, CatObject)
	if q.CategoryOf(1) != CatObject {
		t.Error("SetCategory did not stick")
	}
}

func TestOpenFilePagerBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	p, err := CreateFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(CatUnknown); err != nil {
		t.Fatal(err)
	}
	p.Close()
	// Corrupt the size.
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	if _, err := OpenFilePager(path); err == nil {
		t.Error("OpenFilePager accepted non-page-aligned file")
	}
}
