package storage

import (
	"container/list"
	"sync"
)

// poolShards is the number of lock stripes in a ConcurrentPool. Pages are
// distributed over the stripes by id, so with dozens of stripes two
// goroutines reading different pages almost never share a lock.
const poolShards = 64

// ConcurrentPool is the repository's one page cache: a lock-striped LRU
// over a Pager, safe for use by many goroutines at once.
//
// It plays the role of the OS page cache in the paper's setup: within a
// single query, re-touching an already-fetched page is free; before each
// query the figure harness calls DropFrames (the paper overwrites the OS
// cache with an empty file), so every query starts cold. The paper's
// workload is read-mostly (models change rarely and in batches; range
// queries dominate), so serving wants many queries in flight against
// one shared cache; an unbounded pool never evicts, so the miss counts
// of builds and figures do not depend on the striping.
//
// Design:
//
//   - Frames are striped over poolShards independently locked shards by
//     PageID; each shard runs its own small LRU.
//   - Cached frames are immutable snapshots: Write installs a fresh copy
//     instead of mutating cached bytes, so a slice returned by Read stays
//     valid — and race-free — even if the frame is evicted or the page is
//     rewritten while the caller still decodes it.
//   - The pool keeps no counters: a miss is tallied, by the page's
//     category, into the Stats the caller handed to ReadInto, and
//     nowhere else.
//
// Concurrency contract: any number of Read/ReadInto calls may run
// concurrently with each other and with DropFrames/DropFramesIf. Alloc
// and Write are serialized among themselves but must NOT run
// concurrently with reads: a cache miss hits the underlying Pager
// outside the write lock, and the pagers in this repository (MemPager,
// FilePager) only support concurrent ReadPage while no Alloc/WritePage
// runs. The FLAT index is bulkloaded and immutable, so its query phase
// is read-only by construction and satisfies this for free; finish
// builds before querying concurrently.
//
// The capacity bound is enforced per shard (capacity/poolShards frames
// each, minimum one), so a bounded pool holds at most ~capacity frames
// overall but a capacity below poolShards still caches up to one frame
// per shard, and eviction is LRU within a shard, not across the pool.
type ConcurrentPool struct {
	pager    Pager
	capacity int // total frame budget; <= 0 means unbounded
	shards   [poolShards]poolShard
	wmu      sync.Mutex // serializes Alloc/Write against the pager
}

// frame is one cached page: an immutable snapshot of its bytes.
type frame struct {
	id   PageID
	data []byte
}

type poolShard struct {
	mu     sync.Mutex
	frames map[PageID]*list.Element // guarded by mu
	lru    *list.List               // front = most recently used; guarded by mu
	cap    int                      // per-shard frame budget; <= 0 means unbounded
}

// NewConcurrentPool wraps pager in a sharded LRU cache with a total
// budget of capacity pages. A capacity <= 0 means the cache is unbounded.
func NewConcurrentPool(pager Pager, capacity int) *ConcurrentPool {
	p := &ConcurrentPool{pager: pager, capacity: capacity}
	perShard := 0
	if capacity > 0 {
		perShard = capacity / poolShards
		if perShard == 0 {
			perShard = 1
		}
	}
	for i := range p.shards {
		//lint:ignore lockedfield construction: the pool has not escaped yet
		p.shards[i].frames = make(map[PageID]*list.Element)
		//lint:ignore lockedfield construction: the pool has not escaped yet
		p.shards[i].lru = list.New()
		p.shards[i].cap = perShard
	}
	return p
}

func (p *ConcurrentPool) shard(id PageID) *poolShard {
	return &p.shards[uint64(id)%poolShards]
}

// Pager returns the underlying pager.
func (p *ConcurrentPool) Pager() Pager { return p.pager }

// Capacity returns the pool's total frame budget (<= 0: unbounded).
func (p *ConcurrentPool) Capacity() int { return p.capacity }

// Alloc allocates a new page through the underlying pager. The new page
// is not cached (it is all zeroes). Alloc may not run concurrently with
// Read of unallocated pages; it exists for the single-threaded build
// phase.
func (p *ConcurrentPool) Alloc(cat Category) (PageID, error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.pager.Alloc(cat)
}

// Read returns the content of page id, fetching it from the underlying
// pager on a cache miss. The returned slice is an immutable snapshot:
// safe to decode without holding any lock, never overwritten in place.
//
// Nothing is counted; a query that wants its misses calls ReadInto.
func (p *ConcurrentPool) Read(id PageID) ([]byte, error) {
	return p.ReadInto(id, nil)
}

// ReadInto is Read, but additionally tallies a cache miss, under the
// page's category, into local, which the caller owns exclusively
// (queries pass their own Stats and receive exactly the misses they
// caused). A hit is free, as with an OS page cache.
func (p *ConcurrentPool) ReadInto(id PageID, local *Stats) ([]byte, error) {
	sh := p.shard(id)
	sh.mu.Lock()
	if el, ok := sh.frames[id]; ok {
		sh.lru.MoveToFront(el)
		data := el.Value.(*frame).data
		sh.mu.Unlock()
		return data, nil
	}
	sh.mu.Unlock()

	// Miss: fetch outside the lock so slow pager reads of different
	// pages in one shard can overlap. Two goroutines missing on the same
	// page both hit the pager; both fetches are real and both counted.
	// A frame-capable pager (mmap) serves the page as an immutable
	// aliased slice instead of a read-and-copy; the miss is counted
	// identically either way.
	data, aliased := pageFrame(p.pager, id)
	if !aliased {
		data = make([]byte, PageSize)
		if err := p.pager.ReadPage(id, data); err != nil {
			return nil, err
		}
	}
	if local != nil {
		local.Reads[p.pager.CategoryOf(id)]++
	}

	sh.mu.Lock()
	if el, ok := sh.frames[id]; ok {
		// Another goroutine cached the page while we fetched; keep its
		// frame (frames are interchangeable immutable snapshots).
		sh.lru.MoveToFront(el)
		data = el.Value.(*frame).data
		sh.mu.Unlock()
		return data, nil
	}
	sh.insert(id, data)
	sh.mu.Unlock()
	return data, nil
}

// Write stores src as the new content of page id, write-through to the
// underlying pager, and caches it. The cached frame is replaced, not
// overwritten, so slices handed out by earlier Reads remain valid. src
// must be at least PageSize bytes long; a shorter buffer is an error.
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
	data := make([]byte, PageSize)
	copy(data, src[:PageSize])
	sh := p.shard(id)
	sh.mu.Lock()
	if el, ok := sh.frames[id]; ok {
		el.Value.(*frame).data = data
		sh.lru.MoveToFront(el)
	} else {
		sh.insert(id, data)
	}
	sh.mu.Unlock()
	return nil
}

// insert adds a frame to the shard, evicting its LRU tail when over
// budget. Callers hold sh.mu. flatlint:holds mu
func (sh *poolShard) insert(id PageID, data []byte) {
	el := sh.lru.PushFront(&frame{id: id, data: data})
	sh.frames[id] = el
	if sh.cap > 0 && sh.lru.Len() > sh.cap {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.frames, oldest.Value.(*frame).id)
	}
}

// Len returns the number of cached frames across all shards.
func (p *ConcurrentPool) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
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
		var next *list.Element
		for el := sh.lru.Front(); el != nil; el = next {
			next = el.Next()
			fr := el.Value.(*frame)
			if drop(fr.id) {
				sh.lru.Remove(el)
				delete(sh.frames, fr.id)
			}
		}
		sh.mu.Unlock()
	}
}

// DropFrames drops every cached frame: the cold-cache state the paper
// establishes before each query.
func (p *ConcurrentPool) DropFrames() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.frames = make(map[PageID]*list.Element)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}
