package storage

import "sync"

// ConcurrentPool is the repository's one Pool: a Pager whose reads are
// tallied, by page category, into the Stats each caller hands in. It is
// safe for use by many goroutines at once.
//
// It keeps no page table. Every page a pager hands out is already in
// memory — a mapped page is an alias into the mapping, a MemPager page
// its stored slice — so a table of them would save nothing, and it
// would make a query's page reads depend on what ran before it and
// beside it. Instead every ReadInto is one Pager.ReadPage, and the
// paper's cold-cache methodology (the OS cache cleared before every
// query) is kept by the reader: a FLAT query counts each page it reads
// once (core's per-query page table), an R-tree walk reads each node
// once. Nothing is copied, and pages are immutable: Write installs new
// bytes for the next read, and a slice read before it keeps the old
// ones (a mapped page stays valid until its pager is closed).
//
// Concurrency contract: any number of ReadInto calls may run
// concurrently with each other. Alloc and Write are serialized among
// themselves but must NOT run concurrently with reads: the pagers in
// this repository only support concurrent ReadPage while no
// Alloc/WritePage runs. The FLAT index is bulkloaded and immutable, so
// its query phase is read-only by construction and satisfies this for
// free; finish builds before querying concurrently.
type ConcurrentPool struct {
	pager Pager
	wmu   sync.Mutex // serializes Alloc/Write against the pager
}

// NewConcurrentPool wraps pager in a pool. The second argument is
// reserved and ignored: the pool holds no pages. It stays only because
// the benchmark module passes it.
func NewConcurrentPool(pager Pager, _ int) *ConcurrentPool {
	return &ConcurrentPool{pager: pager}
}

// Pager returns the underlying pager.
func (p *ConcurrentPool) Pager() Pager { return p.pager }

// Alloc allocates a new page through the underlying pager. Alloc may
// not run concurrently with reads; it exists for the single-threaded
// build phase.
func (p *ConcurrentPool) Alloc(cat Category) (PageID, error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.pager.Alloc(cat)
}

// ReadInto returns the content of page id, read from the underlying
// pager, and tallies the read under the page's category into local,
// which the caller owns exclusively (local may be nil: an untallied
// read). The returned slice is immutable: safe to decode without
// holding any lock, never overwritten in place.
func (p *ConcurrentPool) ReadInto(id PageID, local *Stats) ([]byte, error) {
	data, err := p.pager.ReadPage(id)
	if err != nil {
		return nil, err
	}
	if local != nil {
		local.Reads[p.pager.CategoryOf(id)]++
	}
	return data, nil
}

// Write stores src as the new content of page id, write-through to the
// underlying pager: the next read returns the new content, and a slice
// handed out by an earlier read keeps the old bytes. src must be at
// least PageSize bytes long; a shorter buffer is an error.
func (p *ConcurrentPool) Write(id PageID, src []byte) error {
	if err := checkBuf(src, "write"); err != nil {
		return err
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.pager.WritePage(id, src)
}

// DropFrames does nothing: the pool holds no pages, so every read is
// already cold. It is reserved, kept only because the benchmark module
// calls it.
func (p *ConcurrentPool) DropFrames() {}
