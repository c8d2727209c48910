// Package storage implements the paged storage engine underneath every
// index in this repository.
//
// The paper's experimental methodology stores all index structures on disk
// in 4 KiB pages and reports *disk page reads* as its primary metric, with
// OS caches cleared before every query. This package reproduces that
// environment:
//
//   - Pager: a flat array of 4 KiB pages, backed by a real file
//     (FilePager, or read-only MmapPager) or by memory (MemPager, for
//     tests and benchmarks). MultiPager is the one Pager over other
//     pagers: it routes the shard-tagged id space of a sharded index.
//     Two optional capabilities ride on a Pager: CategorySetter and
//     FramePager.
//   - ConcurrentPool: the one LRU page cache, layered over a Pager.
//     Reads that miss the pool are counted as disk page reads, classified
//     by the page's allocation category (R-tree leaf, R-tree internal,
//     FLAT object page, seed-tree node, metadata...) into the Stats the
//     reading query passed to ReadInto — the one tally; the pool keeps
//     no counters of its own. DropFrames drops all cached frames — the
//     equivalent of the paper's cache clearing between queries.
//
// All figures in the paper that report "page reads", "data retrieved" or
// leaf/non-leaf breakdowns are sums of those per-query tallies.
package storage

import (
	"errors"
	"fmt"
)

// PageSize is the size of every disk page in bytes, matching the paper's
// setup ("All approaches store data on the disk in 4K pages").
const PageSize = 4096

// PageID identifies a page by its index within a Pager.
type PageID uint64

// InvalidPage is a sentinel PageID used for "no page".
const InvalidPage = PageID(^uint64(0))

// Category classifies a page by the structure it belongs to. Pages are
// tagged at allocation time; the pool attributes each read to the
// page's category so that every breakdown figure in the paper
// (seed tree vs metadata vs object pages; leaf vs non-leaf) can be
// produced from counters.
type Category uint8

// Page categories. The R-tree categories are used by all three baseline
// R-tree variants; the seed/metadata/object categories by FLAT.
const (
	CatUnknown       Category = iota
	CatRTreeInternal          // baseline R-tree non-leaf node
	CatRTreeLeaf              // baseline R-tree leaf node
	CatSeedInternal           // FLAT seed-tree non-leaf node
	CatMetadata               // FLAT seed-tree leaf holding metadata records
	CatObject                 // FLAT object page holding spatial elements
	NumCategories
)

// ErrPageOutOfRange is returned when reading or writing a page that was
// never allocated.
var ErrPageOutOfRange = errors.New("storage: page id out of range")

// Pager is a flat, growable array of fixed-size pages. Every pager here
// supports concurrent ReadPage (and CategoryOf) while no Alloc or
// WritePage runs; ConcurrentPool's contract builds on exactly that.
type Pager interface {
	// Alloc appends a new zeroed page tagged with the given category and
	// returns its id.
	Alloc(cat Category) (PageID, error)
	// ReadPage copies the content of page id into dst, which must be at
	// least PageSize bytes long.
	ReadPage(id PageID, dst []byte) error
	// WritePage overwrites page id with src, which must be at least
	// PageSize bytes long.
	WritePage(id PageID, src []byte) error
	// CategoryOf returns the category page id was allocated with.
	CategoryOf(id PageID) Category
	// NumPages returns the number of allocated pages.
	NumPages() uint64
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases the pager's resources.
	Close() error
}

// CategorySetter is implemented by pagers that can re-tag a page's
// category after the fact. Index open paths use it to restore the
// measurement categories of a persisted file (FilePager keeps them in
// memory only), and MultiPager forwards it to the routed sub-pager.
type CategorySetter interface {
	SetCategory(id PageID, cat Category)
}

// FramePager is implemented by pagers that can expose a page's bytes
// without copying (MmapPager and the MultiPager routing to it). Frame
// returns a slice aliasing the pager's storage: callers must treat it
// as immutable and not retain it past Close. Pagers that cannot alias
// the requested page return ErrNoFrame and callers fall back to
// ReadPage.
type FramePager interface {
	Frame(id PageID) ([]byte, error)
}

// ErrNoFrame is returned by FramePager implementations that cannot
// serve the requested page without a copy.
var ErrNoFrame = errors.New("storage: page has no addressable frame")

// pageFrame returns an aliased frame for page id when pg supports one.
// Any error means "use ReadPage instead" — out-of-range ids surface
// their error through that fallback.
func pageFrame(pg Pager, id PageID) ([]byte, bool) {
	fp, ok := pg.(FramePager)
	if !ok {
		return nil, false
	}
	b, err := fp.Frame(id)
	if err != nil || len(b) < PageSize {
		return nil, false
	}
	return b[:PageSize:PageSize], true
}

func checkBuf(buf []byte, op string) error {
	if len(buf) < PageSize {
		return fmt.Errorf("storage: %s buffer too small: %d < %d", op, len(buf), PageSize)
	}
	return nil
}
