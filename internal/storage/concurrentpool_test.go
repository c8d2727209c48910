package storage

import (
	"bytes"
	"fmt"
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

// One miss, then hits: the caller's tally moves on the first read of a
// page and on no later one.
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
	// A re-read is a hit: free, like an OS page cache — for this caller
	// and for any other.
	var other Stats
	readInto(t, pool, 3, &tally)
	readInto(t, pool, 3, &other)
	if tally.Reads[CatObject] != 1 || other.TotalReads() != 0 {
		t.Fatalf("reads after hits = %d and %d, want 1 and 0", tally.Reads[CatObject], other.TotalReads())
	}
	if pool.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pool.Len())
	}
	// Read is ReadInto without a tally.
	if _, err := pool.Read(4); err != nil {
		t.Fatalf("read: %v", err)
	}
	if tally.TotalReads() != 1 || pool.Len() != 2 {
		t.Fatalf("untallied read moved a tally (%d) or cached nothing (Len %d)", tally.TotalReads(), pool.Len())
	}
}

// Per-category attribution: a miss lands under the page's category in
// the tally of the caller that caused it, and nowhere else.
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
	// q2 re-touches page 1 (global hit, not counted) and misses page 3.
	if _, err := pool.ReadInto(1, &q2); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ReadInto(3, &q2); err != nil {
		t.Fatal(err)
	}
	if q1.Reads[CatMetadata] != 2 {
		t.Errorf("q1 local reads = %d, want 2", q1.Reads[CatMetadata])
	}
	if q2.Reads[CatMetadata] != 1 {
		t.Errorf("q2 local reads = %d, want 1 (page 1 was a shared hit)", q2.Reads[CatMetadata])
	}
	if _, err := pool.ReadInto(object, &q2); err != nil {
		t.Fatal(err)
	}
	var want1, want2 Stats
	want1.Reads[CatMetadata] = 2
	want2.Reads[CatMetadata], want2.Reads[CatObject] = 1, 1
	if q1 != want1 || q2 != want2 {
		t.Errorf("tallies %+v and %+v, want %+v and %+v", q1, q2, want1, want2)
	}
}

func TestConcurrentPoolWriteReplacesFrame(t *testing.T) {
	pager := fillPager(t, 2, CatObject)
	pool := NewConcurrentPool(pager, 0)

	before, err := pool.Read(0)
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
	after, err := pool.Read(0)
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
	// The cached-frame branch must validate too.
	if _, err := pool.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := pool.Write(0, make([]byte, 7)); err == nil {
		t.Fatal("short write on cached page must return an error")
	}
}

func TestConcurrentPoolBounded(t *testing.T) {
	const pages = 512
	pager := fillPager(t, pages, CatObject)
	pool := NewConcurrentPool(pager, 128)
	var tally Stats
	for id := 0; id < pages; id++ {
		readInto(t, pool, PageID(id), &tally)
	}
	// The budget is enforced per shard; the total may run slightly under
	// the configured capacity for skewed id sets but never over
	// max(capacity, poolShards).
	if n := pool.Len(); n > 128 {
		t.Fatalf("bounded pool holds %d frames, budget 128", n)
	}
	if got := tally.Reads[CatObject]; got != pages {
		t.Fatalf("reads = %d, want %d", got, pages)
	}
}

// countingPager counts the page fetches that reach the pager: the
// misses a pool over it actually performed.
type countingPager struct {
	Pager
	fetches atomic.Uint64
}

func (p *countingPager) ReadPage(id PageID, dst []byte) error {
	p.fetches.Add(1)
	return p.Pager.ReadPage(id, dst)
}

// TestConcurrentPoolParallel hammers one pool from many goroutines and
// verifies (under -race) that every read returns the right bytes and
// that the goroutines' own tallies sum to the misses performed: every
// pager fetch is charged to exactly one caller.
func TestConcurrentPoolParallel(t *testing.T) {
	const pages = 200
	pager := &countingPager{Pager: fillPager(t, pages, CatObject)}
	pool := NewConcurrentPool(pager, 64) // bounded: force constant eviction

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
	if fetched := pager.fetches.Load(); fetched != localSum || fetched < pages {
		t.Errorf("pager served %d fetches, the callers' tallies sum to %d", fetched, localSum)
	}
}

// TestConcurrentPoolLRUWithinStripe pins the eviction order the pool
// does promise: least recently used first among the pages of one stripe.
// Pages 0, 64 and 128 share a stripe, and a budget of 128 gives every
// stripe two frames.
func TestConcurrentPoolLRUWithinStripe(t *testing.T) {
	pager := fillPager(t, 2*poolShards+1, CatObject)
	pool := NewConcurrentPool(pager, 2*poolShards)
	a, b, c := PageID(0), PageID(poolShards), PageID(2*poolShards)
	pool.Read(a)
	pool.Read(b)
	pool.Read(a) // a is now MRU
	pool.Read(c) // evicts b
	if pool.Len() != 2 {
		t.Errorf("Len = %d, want 2", pool.Len())
	}
	// a and c are still cached — re-reading them is free — and b was
	// evicted: re-reading it is a miss again.
	var tally Stats
	readInto(t, pool, a, &tally)
	readInto(t, pool, c, &tally)
	if got := tally.TotalReads(); got != 0 {
		t.Errorf("pages a and c should still be cached: %d reads", got)
	}
	readInto(t, pool, b, &tally)
	if got := tally.TotalReads(); got != 1 {
		t.Errorf("evicted page re-read not counted")
	}
}

// DropFrames is the one cache verb: it empties the cache, so the next
// read of every page is a miss again, and touches no caller's tally.
func TestConcurrentPoolDropFramesMakesQueriesCold(t *testing.T) {
	pool := NewConcurrentPool(fillPager(t, 2, CatObject), 0)
	var tally Stats
	readInto(t, pool, 0, &tally)
	readInto(t, pool, 1, &tally)
	if tally.TotalReads() != 2 {
		t.Fatal("setup")
	}
	pool.DropFrames()
	if pool.Len() != 0 {
		t.Error("DropFrames did not clear frames")
	}
	if tally.TotalReads() != 2 {
		t.Error("DropFrames moved a caller's tally")
	}
	readInto(t, pool, 0, &tally)
	if tally.TotalReads() != 3 {
		t.Error("read after DropFrames should be a cold miss")
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
	dst := make([]byte, PageSize)
	if err := p.ReadPage(id, dst); err != nil {
		t.Fatal(err)
	}
	if dst[5] != 42 {
		t.Error("write-through failed")
	}
	// The write also primed the cache: reading is not a miss.
	var tally Stats
	got := readInto(t, pool, id, &tally)
	if got[5] != 42 {
		t.Error("cached read returned stale data")
	}
	if tally.TotalReads() != 0 {
		t.Error("read after write should hit cache")
	}
	// Overwriting an already-cached page replaces the frame.
	src[5] = 43
	if err := pool.Write(id, src); err != nil {
		t.Fatal(err)
	}
	got, _ = pool.Read(id)
	if got[5] != 43 {
		t.Error("cached frame not updated by second write")
	}
}

func TestConcurrentPoolReadError(t *testing.T) {
	pool := NewConcurrentPool(NewMemPager(), 0)
	if _, err := pool.Read(123); err == nil {
		t.Error("reading unallocated page should fail")
	}
}
