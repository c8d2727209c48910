package storage

import "sync"

// poolShards is the number of lock stripes in a ConcurrentPool. Pages are
// distributed over the stripes by id, so with dozens of stripes two
// goroutines reading different pages almost never share a lock.
const poolShards = 64

// ConcurrentPool is the repository's one page cache: an unbounded,
// lock-striped table of the pages its Pager handed out, safe for use by
// many goroutines at once.
//
// It plays the role of the OS page cache in the paper's setup: within a
// single query, re-touching an already-fetched page is free; before each
// query the figure harness calls DropFrames (the paper overwrites the OS
// cache with an empty file), so every query starts cold. The paper's
// workload is read-mostly (models change rarely and in batches; range
// queries dominate), so serving wants many queries in flight against
// one shared cache. The pool never evicts, so the miss counts of builds
// and figures do not depend on the striping.
//
// Design:
//
//   - A miss is one Pager.ReadPage, and the pool caches the slice it
//     returns; a hit returns that slice again. Nothing is copied: a
//     mapped page is an alias into the mapping, a MemPager page its
//     stored slice. Pages are immutable — Write never mutates cached
//     bytes, it drops the page's frame and the next read fetches the new
//     content — so a slice returned by ReadInto stays valid, and
//     race-free, even if its frame is dropped or the page is rewritten
//     while the caller still decodes it (a mapped page, until the pager
//     is closed). Write does not prime the cache: a build writes every
//     page once and reads few of them back, through a pool that is
//     discarded.
//   - The pool keeps no counters: a miss is tallied, by the page's
//     category, into the Stats the caller handed to ReadInto, and
//     nowhere else.
//
// Concurrency contract: any number of ReadInto calls may run
// concurrently with each other and with DropFrames/DropFramesIf. Alloc
// and Write are serialized among themselves but must NOT run
// concurrently with reads: a cache miss hits the underlying Pager
// outside the write lock, and the pagers in this repository only
// support concurrent ReadPage while no Alloc/WritePage runs. The FLAT
// index is bulkloaded and immutable, so its query phase is read-only by
// construction and satisfies this for free; finish builds before
// querying concurrently.
type ConcurrentPool struct {
	pager  Pager
	shards [poolShards]poolShard
	wmu    sync.Mutex // serializes Alloc/Write against the pager
}

type poolShard struct {
	mu     sync.Mutex
	frames map[PageID][]byte // guarded by mu; made by the first miss
}

// NewConcurrentPool wraps pager in an unbounded lock-striped cache. The
// second argument is reserved and ignored: the pool has no capacity.
func NewConcurrentPool(pager Pager, _ int) *ConcurrentPool {
	return &ConcurrentPool{pager: pager}
}

func (p *ConcurrentPool) shard(id PageID) *poolShard {
	return &p.shards[uint64(id)%poolShards]
}

// Pager returns the underlying pager.
func (p *ConcurrentPool) Pager() Pager { return p.pager }

// Alloc allocates a new page through the underlying pager. The new page
// is not cached (it is all zeroes). Alloc may not run concurrently with
// reads of unallocated pages; it exists for the single-threaded build
// phase.
func (p *ConcurrentPool) Alloc(cat Category) (PageID, error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.pager.Alloc(cat)
}

// ReadInto returns the content of page id, fetching it from the
// underlying pager on a cache miss and tallying that miss, under the
// page's category, into local, which the caller owns exclusively
// (queries pass their own Stats and receive exactly the misses they
// caused; local may be nil). A hit is free, as with an OS page cache.
// The returned slice is immutable: safe to decode without holding any
// lock, never overwritten in place.
func (p *ConcurrentPool) ReadInto(id PageID, local *Stats) ([]byte, error) {
	sh := p.shard(id)
	sh.mu.Lock()
	data, ok := sh.frames[id]
	sh.mu.Unlock()
	if ok {
		return data, nil
	}

	// Miss: fetch outside the lock so slow pager reads of different
	// pages in one shard can overlap. Two goroutines missing on the same
	// page both hit the pager; both fetches are real and both counted.
	data, err := p.pager.ReadPage(id)
	if err != nil {
		return nil, err
	}
	if local != nil {
		local.Reads[p.pager.CategoryOf(id)]++
	}

	sh.mu.Lock()
	if cached, ok := sh.frames[id]; ok {
		// Another goroutine cached the page while we fetched; keep its
		// frame (frames of one page are interchangeable).
		data = cached
	} else {
		if sh.frames == nil {
			sh.frames = make(map[PageID][]byte)
		}
		sh.frames[id] = data
	}
	sh.mu.Unlock()
	return data, nil
}

// Write stores src as the new content of page id, write-through to the
// underlying pager, and drops any cached frame of the page: the next
// read fetches the new content (and counts a miss). A slice handed out
// by an earlier read keeps the old bytes. src must be at least PageSize
// bytes long; a shorter buffer is an error.
func (p *ConcurrentPool) Write(id PageID, src []byte) error {
	if err := checkBuf(src, "write"); err != nil {
		return err
	}
	p.wmu.Lock()
	err := p.pager.WritePage(id, src)
	p.wmu.Unlock()
	if err != nil {
		return err
	}
	sh := p.shard(id)
	sh.mu.Lock()
	delete(sh.frames, id)
	sh.mu.Unlock()
	return nil
}

// Len returns the number of cached frames across all shards.
func (p *ConcurrentPool) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// DropFramesIf drops every cached frame whose page id satisfies drop,
// keeping the remaining frames. The sharded rebuild path uses it to
// invalidate exactly the rebuilt shards' pages, so the untouched shards
// keep their warm cache across an incremental rebuild.
// Safe to call concurrently with reads, like DropFrames; callers that
// replace the backing pages (rebuild) must additionally keep reads of
// those pages from running until the swap is complete.
func (p *ConcurrentPool) DropFramesIf(drop func(PageID) bool) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id := range sh.frames {
			if drop(id) {
				delete(sh.frames, id)
			}
		}
		sh.mu.Unlock()
	}
}

// DropFrames drops every cached frame: the cold-cache state the paper
// establishes before each query. Each stripe's table is cleared in
// place, so refilling it with as many pages allocates nothing.
func (p *ConcurrentPool) DropFrames() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		clear(sh.frames)
		sh.mu.Unlock()
	}
}
