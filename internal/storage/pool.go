package storage

// Pool is the page-cache interface every index in this repository reads
// and writes through. ConcurrentPool is its one implementation here; the
// interface stays so measurement code can wrap a pool (core.Index.WithPool
// takes any Pool) without the index knowing.
//
// Per-query accounting goes through ReadInto: a query passes its own
// Stats value and receives exactly the misses it caused, so it never has
// to diff the pool's shared counters (which would race when several
// queries run at once).
type Pool interface {
	// Pager returns the underlying pager.
	Pager() Pager
	// Alloc allocates a new zeroed page tagged with the given category.
	Alloc(cat Category) (PageID, error)
	// Read returns the content of page id, fetching it from the
	// underlying pager on a cache miss. The returned slice must be
	// treated as read-only.
	Read(id PageID) ([]byte, error)
	// ReadInto is Read, but additionally tallies a cache miss into
	// local, which the caller owns exclusively. local may be nil.
	ReadInto(id PageID, local *Stats) ([]byte, error)
	// Write stores src as the new content of page id, write-through to
	// the underlying pager. src must be at least PageSize bytes long.
	Write(id PageID, src []byte) error
	// Stats returns a snapshot of the accumulated global counters.
	Stats() Stats
	// ResetStats zeroes the global counters but keeps cached frames.
	ResetStats()
	// DropFrames drops every cached frame but keeps the counters, for
	// measuring a sequence of cold queries cumulatively.
	DropFrames()
	// Reset drops every cached frame and zeroes the counters: the
	// cold-cache state the paper establishes before each query.
	Reset()
}

var _ Pool = (*ConcurrentPool)(nil)
