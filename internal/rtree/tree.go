package rtree

import (
	"errors"
	"fmt"

	"flat/internal/geom"
	"flat/internal/storage"
)

// Strategy selects the bulkloading algorithm.
type Strategy int

// Bulkloading strategies, matching the three baselines of the paper's
// evaluation (Section VII).
const (
	// STR packs with one Sort-Tile-Recursive pass per level.
	STR Strategy = iota
	// Hilbert sorts elements by the Hilbert value of their MBR center and
	// packs consecutive runs.
	Hilbert
	// PR builds a Priority R-tree (pseudo-PR-tree grouping per level).
	PR
)

// String returns the conventional name of the strategy.
func (s Strategy) String() string {
	switch s {
	case STR:
		return "STR R-Tree"
	case Hilbert:
		return "Hilbert R-Tree"
	case PR:
		return "PR-Tree"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config controls tree construction.
type Config struct {
	// LeafCapacity is the number of elements per leaf page. Zero means
	// NodeCapacity (a full 4 KiB page).
	LeafCapacity int
	// InternalCapacity is the fanout of internal nodes. Zero means
	// NodeCapacity.
	InternalCapacity int
	// InternalCat and LeafCat tag the allocated pages for read
	// accounting. Zero values default to CatRTreeInternal/CatRTreeLeaf.
	InternalCat storage.Category
	LeafCat     storage.Category
}

func (c Config) withDefaults() Config {
	if c.LeafCapacity == 0 {
		c.LeafCapacity = NodeCapacity
	}
	if c.InternalCapacity == 0 {
		c.InternalCapacity = NodeCapacity
	}
	if c.InternalCat == storage.CatUnknown {
		c.InternalCat = storage.CatRTreeInternal
	}
	if c.LeafCat == storage.CatUnknown {
		c.LeafCat = storage.CatRTreeLeaf
	}
	return c
}

// Tree is a bulkloaded, disk-resident R-tree. All page access goes
// through the storage.Pool it was built on; a caller that wants a
// traversal's cost queries a Tally view and receives exactly the cache
// misses that traversal caused. Every query method is safe for
// concurrent use when the pool is.
type Tree struct {
	pool                     storage.Pool
	tally                    *storage.Stats // nil: reads are not counted
	root                     storage.PageID
	height                   int // number of levels, 1 = root is a leaf
	count                    int // number of indexed elements
	leafPages, internalPages int
	bounds                   geom.MBR
}

// ErrEmpty is returned when building a tree over zero elements.
var ErrEmpty = errors.New("rtree: cannot build an empty tree")

// Build bulkloads a tree over els with the given strategy. els is
// reordered in place by the packing pass. world must contain all element
// centers; it is required by the Hilbert strategy for quantization and
// ignored by the others (pass geom.ElementsMBR(els) when in doubt).
func Build(pool storage.Pool, els []geom.Element, strategy Strategy, world geom.MBR, cfg Config) (*Tree, error) {
	if len(els) == 0 {
		return nil, ErrEmpty
	}
	cfg = cfg.withDefaults()
	t := &Tree{pool: pool, bounds: geom.ElementsMBR(els)}

	var groups [][]geom.Element
	switch strategy {
	case STR:
		groups = packSTR(els, cfg.LeafCapacity)
	case Hilbert:
		groups = packHilbert(els, world, cfg.LeafCapacity)
	case PR:
		groups = packPR(els, cfg.LeafCapacity)
	default:
		return nil, fmt.Errorf("rtree: unknown strategy %d", strategy)
	}

	// Write leaf pages.
	entries := make([]NodeEntry, 0, len(groups))
	buf := make([]byte, storage.PageSize)
	leafEntries := make([]NodeEntry, 0, cfg.LeafCapacity)
	for _, g := range groups {
		leafEntries = leafEntries[:0]
		for _, e := range g {
			leafEntries = append(leafEntries, NodeEntry{Box: e.Box, Ref: e.ID})
		}
		id, err := pool.Alloc(cfg.LeafCat)
		if err != nil {
			return nil, err
		}
		encodeNode(buf, true, leafEntries)
		if err := pool.Write(id, buf); err != nil {
			return nil, err
		}
		entries = append(entries, NodeEntry{Box: nodeMBR(leafEntries), Ref: uint64(id)})
		t.count += len(g)
	}
	t.leafPages = len(groups)

	if len(entries) == 1 {
		t.root = storage.PageID(entries[0].Ref)
		t.height = 1
		return t, nil
	}

	root, levels, internalPages, err := buildAbove(pool, entries, strategy, world, cfg)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.height = levels + 1
	t.internalPages = internalPages
	return t, nil
}

// BuildAbove constructs internal levels over pre-written leaf pages
// described by entries (leaf page MBR + page id) and returns the root
// page, the total height in levels including the given leaf level, and
// the number of internal pages written. FLAT uses this to put a seed tree
// above its metadata pages. If there is exactly one entry, that page
// itself is the root (height 1, zero internal pages).
func BuildAbove(pool storage.Pool, entries []NodeEntry, cfg Config) (storage.PageID, int, int, error) {
	if len(entries) == 0 {
		return storage.InvalidPage, 0, 0, ErrEmpty
	}
	cfg = cfg.withDefaults()
	if len(entries) == 1 {
		return storage.PageID(entries[0].Ref), 1, 0, nil
	}
	root, levels, pages, err := buildAbove(pool, entries, STR, geom.MBR{}, cfg)
	if err != nil {
		return storage.InvalidPage, 0, 0, err
	}
	return root, levels + 1, pages, nil
}

// buildAbove packs entries into internal nodes level by level until a
// single root remains. It returns the root page id, the number of
// internal levels created, and the number of internal pages written.
func buildAbove(pool storage.Pool, entries []NodeEntry, strategy Strategy, world geom.MBR, cfg Config) (storage.PageID, int, int, error) {
	buf := make([]byte, storage.PageSize)
	levels, pages := 0, 0
	for len(entries) > 1 {
		var groups [][]NodeEntry
		switch strategy {
		case STR:
			groups = packEntriesSTR(entries, cfg.InternalCapacity)
		case Hilbert:
			// Entries are already in Hilbert order: pack consecutively.
			groups = consecutive(entries, cfg.InternalCapacity)
		case PR:
			groups = packEntriesPR(entries, cfg.InternalCapacity)
		}
		next := make([]NodeEntry, 0, len(groups))
		for _, g := range groups {
			id, err := pool.Alloc(cfg.InternalCat)
			if err != nil {
				return storage.InvalidPage, 0, 0, err
			}
			encodeNode(buf, false, g)
			if err := pool.Write(id, buf); err != nil {
				return storage.InvalidPage, 0, 0, err
			}
			next = append(next, NodeEntry{Box: nodeMBR(g), Ref: uint64(id)})
			pages++
		}
		entries = next
		levels++
	}
	return storage.PageID(entries[0].Ref), levels, pages, nil
}

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of indexed elements.
func (t *Tree) Len() int { return t.count }

// Bounds returns the MBR of all indexed elements.
func (t *Tree) Bounds() geom.MBR { return t.bounds }

// PageCounts returns the number of leaf and internal pages.
func (t *Tree) PageCounts() (leaf, internal int) { return t.leafPages, t.internalPages }

// SizeBytes returns the on-disk footprint of the tree.
func (t *Tree) SizeBytes() uint64 {
	return uint64(t.leafPages+t.internalPages) * storage.PageSize
}

// Pool returns the buffer pool the tree reads through.
func (t *Tree) Pool() storage.Pool { return t.pool }

// Tally returns a shallow view of the tree whose traversals count their
// cache misses into local, which the caller owns exclusively — the way
// a FLAT query fills its QueryStats. One view serves one goroutine;
// concurrent callers each take their own over the shared tree.
func (t *Tree) Tally(local *storage.Stats) *Tree {
	cp := *t
	cp.tally = local
	return &cp
}
