package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// fillPager allocates n pages of cat, each filled with a byte pattern
// derived from its id, and returns the pager.
func fillPager(t *testing.T, n int, cat Category) *MemPager {
	t.Helper()
	pager := NewMemPager()
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		id, err := pager.Alloc(cat)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		for j := range buf {
			buf[j] = byte(id)
		}
		if err := pager.WritePage(id, buf); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	return pager
}

// readInto reads page id through pool into tally, failing the test on
// an error.
func readInto(t *testing.T, pool *ConcurrentPool, id PageID, tally *Stats) []byte {
	t.Helper()
	data, err := pool.ReadInto(id, tally)
	if err != nil {
		t.Fatalf("read %d: %v", id, err)
	}
	return data
}

// Every tallied read counts, in the caller's tally alone: the pool
// holds no pages, so what one caller read before is no hit for the next
// read, its own or another caller's.
func TestConcurrentPoolBasics(t *testing.T) {
	pager := fillPager(t, 10, CatObject)
	pool := NewConcurrentPool(pager, 0)

	var tally Stats
	data := readInto(t, pool, 3, &tally)
	if data[0] != 3 || data[PageSize-1] != 3 {
		t.Fatalf("page 3 content = %d", data[0])
	}
	if got := tally.Reads[CatObject]; got != 1 {
		t.Fatalf("reads = %d, want 1", got)
	}
	var other Stats
	readInto(t, pool, 3, &tally)
	readInto(t, pool, 3, &other)
	if tally.Reads[CatObject] != 2 || other.TotalReads() != 1 {
		t.Fatalf("reads after re-reads = %d and %d, want 2 and 1", tally.Reads[CatObject], other.TotalReads())
	}
	// A nil tally counts nothing.
	if _, err := pool.ReadInto(4, nil); err != nil {
		t.Fatalf("read: %v", err)
	}
	if tally.TotalReads() != 2 || other.TotalReads() != 1 {
		t.Fatalf("untallied read moved a tally (%d, %d)", tally.TotalReads(), other.TotalReads())
	}
}

// Per-category attribution: a read lands under the page's category in
// the tally of the caller that made it, and nowhere else.
func TestConcurrentPoolReadInto(t *testing.T) {
	pager := fillPager(t, 8, CatMetadata)
	object, err := pager.Alloc(CatObject)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewConcurrentPool(pager, 0)

	var q1, q2 Stats
	if _, err := pool.ReadInto(1, &q1); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ReadInto(2, &q1); err != nil {
		t.Fatal(err)
	}
	// q2 reads page 1 too: it counts for q2 as well.
	if _, err := pool.ReadInto(1, &q2); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ReadInto(3, &q2); err != nil {
		t.Fatal(err)
	}
	if q1.Reads[CatMetadata] != 2 {
		t.Errorf("q1 local reads = %d, want 2", q1.Reads[CatMetadata])
	}
	if q2.Reads[CatMetadata] != 2 {
		t.Errorf("q2 local reads = %d, want 2 (q1's read of page 1 is no hit for q2)", q2.Reads[CatMetadata])
	}
	if _, err := pool.ReadInto(object, &q2); err != nil {
		t.Fatal(err)
	}
	var want1, want2 Stats
	want1.Reads[CatMetadata] = 2
	want2.Reads[CatMetadata], want2.Reads[CatObject] = 2, 1
	if q1 != want1 || q2 != want2 {
		t.Errorf("tallies %+v and %+v, want %+v and %+v", q1, q2, want1, want2)
	}
}

func TestConcurrentPoolWriteReplacesFrame(t *testing.T) {
	pager := fillPager(t, 2, CatObject)
	pool := NewConcurrentPool(pager, 0)

	before, err := pool.ReadInto(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, PageSize)
	for i := range src {
		src[i] = 0xAB
	}
	if err := pool.Write(0, src); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The slice handed out before the write is an immutable snapshot.
	if before[0] != 0 {
		t.Errorf("old snapshot mutated: %x", before[0])
	}
	after, err := pool.ReadInto(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != 0xAB {
		t.Errorf("new content = %x, want ab", after[0])
	}
}

func TestConcurrentPoolShortWriteError(t *testing.T) {
	pager := fillPager(t, 1, CatObject)
	pool := NewConcurrentPool(pager, 0)
	if err := pool.Write(0, make([]byte, PageSize-1)); err == nil {
		t.Fatal("short write must return an error, not panic")
	}
	// A page read before must validate too.
	if _, err := pool.ReadInto(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := pool.Write(0, make([]byte, 7)); err == nil {
		t.Fatal("short write on a read page must return an error")
	}
}

// countingPager counts the page fetches that reach the pager: the
// reads a pool over it actually performed.
type countingPager struct {
	Pager
	fetches atomic.Uint64
}

func (p *countingPager) ReadPage(id PageID) ([]byte, error) {
	p.fetches.Add(1)
	return p.Pager.ReadPage(id)
}

// TestConcurrentPoolParallel hammers one pool from many goroutines and
// verifies (under -race) that every read returns the right bytes and
// that the readers' own tallies sum to the reads performed: every pager
// fetch is charged to exactly one caller.
func TestConcurrentPoolParallel(t *testing.T) {
	const pages = 200
	pager := &countingPager{Pager: fillPager(t, pages, CatObject)}
	pool := NewConcurrentPool(pager, 0)

	var wg sync.WaitGroup
	const workers = 8
	errs := make([]error, workers)
	locals := make([]Stats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := make([]byte, PageSize)
			for i := 0; i < 500; i++ {
				id := PageID((i*7 + w*13) % pages)
				data, err := pool.ReadInto(id, &locals[w])
				if err != nil {
					errs[w] = err
					return
				}
				for j := range want {
					want[j] = byte(id)
				}
				if !bytes.Equal(data, want) {
					errs[w] = fmt.Errorf("page %d returned wrong bytes", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var localSum uint64
	for _, l := range locals {
		localSum += l.TotalReads()
	}
	if fetched := pager.fetches.Load(); fetched != localSum || fetched != workers*500 {
		t.Errorf("pager served %d fetches, the callers' tallies sum to %d", fetched, localSum)
	}
}

func TestConcurrentPoolWriteThrough(t *testing.T) {
	p := NewMemPager()
	pool := NewConcurrentPool(p, 0)
	id, _ := pool.Alloc(CatMetadata)
	src := make([]byte, PageSize)
	src[5] = 42
	if err := pool.Write(id, src); err != nil {
		t.Fatal(err)
	}
	// Underlying pager sees the bytes.
	dst, err := p.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if dst[5] != 42 {
		t.Error("write-through failed")
	}
	// The read returns the written bytes and counts one read.
	var tally Stats
	got := readInto(t, pool, id, &tally)
	if got[5] != 42 {
		t.Error("read after write returned stale data")
	}
	if tally.TotalReads() != 1 {
		t.Errorf("read after write counted %d reads, want 1", tally.TotalReads())
	}
	// Overwriting a read page: the next read sees the new bytes, and a
	// slice read before the write keeps the old ones.
	src[5] = 43
	if err := pool.Write(id, src); err != nil {
		t.Fatal(err)
	}
	again := readInto(t, pool, id, &tally)
	if again[5] != 43 {
		t.Error("read after the second write returned stale data")
	}
	if tally.TotalReads() != 2 {
		t.Errorf("read after the second write: %d reads in all, want 2", tally.TotalReads())
	}
	if got[5] != 42 {
		t.Error("a slice read before the write changed under its reader")
	}
}

func TestConcurrentPoolReadError(t *testing.T) {
	pool := NewConcurrentPool(NewMemPager(), 0)
	if _, err := pool.ReadInto(123, nil); err == nil {
		t.Error("reading unallocated page should fail")
	}
}

// TestConcurrentPoolCopiesNothing pins what a read costs: after one
// pass over a page set, re-reading the same pages allocates nothing,
// over a MemPager and over a mapping, and every page the pool returns
// is the pager's own bytes.
func TestConcurrentPoolCopiesNothing(t *testing.T) {
	const pages = 300
	mem := fillPager(t, pages, CatObject)
	path := filepath.Join(t.TempDir(), "pages.flat")
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	for _, tc := range []struct {
		name  string
		pager Pager
	}{{"mem", mem}, {"mmap", mapped}} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewConcurrentPool(tc.pager, 0)
			var tally Stats
			for id := PageID(0); id < pages; id++ {
				got := readInto(t, pool, id, &tally)
				own, err := tc.pager.ReadPage(id)
				if err != nil {
					t.Fatal(err)
				}
				if &got[0] != &own[0] || len(got) != PageSize || got[0] != byte(id) {
					t.Fatalf("page %d: the pool returned a copy or the wrong bytes", id)
				}
			}
			cold := func() {
				for id := PageID(0); id < pages; id++ {
					if _, err := pool.ReadInto(id, &tally); err != nil {
						t.Fatal(err)
					}
				}
			}
			if allocs := testing.AllocsPerRun(10, cold); allocs != 0 {
				t.Errorf("a re-read of %d pages allocated %.1f times, want 0", pages, allocs)
			}
			if want := uint64(pages * 12); tally.TotalReads() != want {
				t.Errorf("tally = %d reads, want %d (one per page per pass)", tally.TotalReads(), want)
			}
		})
	}
}
