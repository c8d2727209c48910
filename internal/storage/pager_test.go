package storage

import (
	"bytes"
	"math/rand"
	"os"
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
}

func TestMemPagerRoundTrip(t *testing.T) {
	p := NewMemPager()
	defer p.Close()
	pagerRoundTrip(t, p)
}

// TestMemPagerWriteFile writes a MemPager whose first and last pages
// were never written over a longer file at the same path and maps the
// result back: the file is NumPages whole pages, every written page
// reads back byte-identical and the unwritten ones as zeros.
func TestMemPagerWriteFile(t *testing.T) {
	const pages = 5
	path := filepath.Join(t.TempDir(), "pages.flat")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xff}, 2*pages*PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewMemPager()
	r := rand.New(rand.NewSource(11))
	want := make([][]byte, pages)
	for i := range want {
		id, err := p.Alloc(CatObject)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, PageSize)
		if i == 0 || i == pages-1 {
			continue
		}
		r.Read(want[i])
		if err := p.WritePage(id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(p.NumPages())*PageSize {
		t.Fatalf("file is %d bytes, want %d pages of %d", st.Size(), p.NumPages(), PageSize)
	}
	q, err := OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumPages() != pages {
		t.Fatalf("mapped NumPages = %d, want %d", q.NumPages(), pages)
	}
	for id, w := range want {
		got, err := q.ReadPage(PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("page %d: first byte %d, want %d", id, got[0], w[0])
		}
	}
}

// TestMemPagerWriteFileUncreatable: a directory at the path makes
// WriteFile fail, and the directory stays where it was.
func TestMemPagerWriteFileUncreatable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.flat")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	p := NewMemPager()
	if _, err := p.Alloc(CatObject); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile(path); err == nil {
		t.Fatal("WriteFile over a directory succeeded")
	}
	if st, err := os.Stat(path); err != nil || !st.IsDir() {
		t.Fatalf("the directory at the path is gone: %v", err)
	}
}
