package storage

import (
	"bytes"
	"fmt"
	"sync"
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

func TestConcurrentPoolBasics(t *testing.T) {
	pager := fillPager(t, 10, CatObject)
	pool := NewConcurrentPool(pager, 0)

	data, err := pool.Read(3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if data[0] != 3 || data[PageSize-1] != 3 {
		t.Fatalf("page 3 content = %d", data[0])
	}
	if got := pool.Stats().Reads[CatObject]; got != 1 {
		t.Fatalf("reads = %d, want 1", got)
	}
	// A re-read is a hit: free, like an OS page cache.
	if _, err := pool.Read(3); err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if got := pool.Stats().Reads[CatObject]; got != 1 {
		t.Fatalf("reads after hit = %d, want 1", got)
	}
	if pool.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pool.Len())
	}
	pool.DropFrames()
	if pool.Len() != 0 || pool.Stats().TotalReads() != 1 {
		t.Fatal("DropFrames must keep counters")
	}
	pool.Reset()
	if pool.Stats().TotalReads() != 0 {
		t.Fatal("Reset must zero counters")
	}
}

func TestConcurrentPoolReadInto(t *testing.T) {
	pager := fillPager(t, 8, CatMetadata)
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
	if got := pool.Stats().Reads[CatMetadata]; got != 3 {
		t.Errorf("global reads = %d, want 3", got)
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
	if got := pool.Stats().Writes[CatObject]; got != 1 {
		t.Errorf("writes = %d, want 1", got)
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
	for id := 0; id < pages; id++ {
		if _, err := pool.Read(PageID(id)); err != nil {
			t.Fatal(err)
		}
	}
	// The budget is enforced per shard; the total may run slightly under
	// the configured capacity for skewed id sets but never over
	// max(capacity, poolShards).
	if n := pool.Len(); n > 128 {
		t.Fatalf("bounded pool holds %d frames, budget 128", n)
	}
	if got := pool.Stats().Reads[CatObject]; got != pages {
		t.Fatalf("reads = %d, want %d", got, pages)
	}
}

// TestConcurrentPoolParallel hammers one pool from many goroutines and
// verifies (under -race) that every read returns the right bytes and the
// global counters are consistent.
func TestConcurrentPoolParallel(t *testing.T) {
	const pages = 200
	pager := fillPager(t, pages, CatObject)
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
	// Each worker's local misses sum to at least the global total? No:
	// the global total counts every pager fetch, and every fetch was
	// tallied into exactly one local Stats — so the sums must be equal.
	var localSum uint64
	for _, l := range locals {
		localSum += l.TotalReads()
	}
	if global := pool.Stats().TotalReads(); global != localSum {
		t.Errorf("global reads %d != sum of local reads %d", global, localSum)
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
	before := pool.Stats().TotalReads()
	pool.Read(a)
	pool.Read(c)
	if got := pool.Stats().TotalReads(); got != before {
		t.Errorf("pages a and c should still be cached: %d reads", got-before)
	}
	pool.Read(b)
	if got := pool.Stats().TotalReads(); got != before+1 {
		t.Errorf("evicted page re-read not counted")
	}
}

func TestConcurrentPoolResetMakesQueriesCold(t *testing.T) {
	pool := NewConcurrentPool(fillPager(t, 2, CatObject), 0)
	pool.Read(0)
	pool.Read(1)
	if pool.Stats().TotalReads() != 2 {
		t.Fatal("setup")
	}
	pool.Reset()
	if pool.Stats().TotalReads() != 0 {
		t.Error("Reset did not clear stats")
	}
	if pool.Len() != 0 {
		t.Error("Reset did not clear frames")
	}
	pool.Read(0)
	if pool.Stats().TotalReads() != 1 {
		t.Error("read after Reset should be a cold miss")
	}
}

func TestConcurrentPoolDropFramesKeepsCounters(t *testing.T) {
	pool := NewConcurrentPool(fillPager(t, 1, CatObject), 0)
	pool.Read(0)
	pool.DropFrames()
	if pool.Stats().TotalReads() != 1 {
		t.Error("DropFrames cleared counters")
	}
	pool.Read(0)
	if pool.Stats().TotalReads() != 2 {
		t.Error("read after DropFrames should be cold")
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
	if pool.Stats().Writes[CatMetadata] != 1 {
		t.Error("write not counted")
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
	before := pool.Stats().TotalReads()
	got, err := pool.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[5] != 42 {
		t.Error("cached read returned stale data")
	}
	if pool.Stats().TotalReads() != before {
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
