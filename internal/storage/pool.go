package storage

// Pool is the page-cache interface every index in this repository reads
// and writes through. ConcurrentPool is its one implementation here; the
// interface stays so measurement code can wrap a pool (core.Index.WithPool
// takes any Pool) without the index knowing.
//
// A pool keeps no counters. Page reads are counted once, by the query
// that caused them: it passes its own Stats to ReadInto and receives
// exactly its cache misses, so concurrent queries never see each
// other's.
type Pool interface {
	// Pager returns the underlying pager.
	Pager() Pager
	// Alloc allocates a new zeroed page tagged with the given category.
	Alloc(cat Category) (PageID, error)
	// ReadInto returns the content of page id, fetching it from the
	// underlying pager on a cache miss and tallying that miss into
	// local, which the caller owns exclusively (local may be nil). The
	// returned slice must be treated as read-only.
	ReadInto(id PageID, local *Stats) ([]byte, error)
	// Write stores src as the new content of page id, write-through to
	// the underlying pager. src must be at least PageSize bytes long.
	Write(id PageID, src []byte) error
	// DropFrames drops every cached frame: the cold-cache state the
	// paper establishes before each query.
	DropFrames()
}

var _ Pool = (*ConcurrentPool)(nil)
