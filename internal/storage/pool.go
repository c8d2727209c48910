package storage

// Pool is the page-read interface every index in this repository reads
// and writes through. ConcurrentPool is its one implementation here; the
// interface stays so measurement code can wrap a pool (core.Index.WithPool
// takes any Pool) without the index knowing.
//
// A pool keeps no counters and no pages. Page reads are counted by the
// query that makes them: it passes its own Stats to ReadInto, once per
// page it reads, so its count depends neither on what ran before it nor
// on what runs beside it.
type Pool interface {
	// Pager returns the underlying pager.
	Pager() Pager
	// Alloc allocates a new zeroed page tagged with the given category.
	Alloc(cat Category) (PageID, error)
	// ReadInto returns the content of page id and tallies the read into
	// local, which the caller owns exclusively (local may be nil). The
	// returned slice must be treated as read-only.
	ReadInto(id PageID, local *Stats) ([]byte, error)
	// Write stores src as the new content of page id, write-through to
	// the underlying pager. src must be at least PageSize bytes long.
	Write(id PageID, src []byte) error
}

var _ Pool = (*ConcurrentPool)(nil)
