package flat

import (
	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

// RTreeStrategy selects the bulkloading algorithm for a baseline R-tree.
type RTreeStrategy int

// The three bulkloaded R-tree variants the paper evaluates against FLAT.
const (
	// RTreeSTR packs with Sort-Tile-Recursive (Leutenegger et al.).
	RTreeSTR RTreeStrategy = RTreeStrategy(rtree.STR)
	// RTreeHilbert packs in 3D-Hilbert-curve order (Kamel & Faloutsos).
	RTreeHilbert RTreeStrategy = RTreeStrategy(rtree.Hilbert)
	// RTreePR builds a Priority R-tree (Arge et al.).
	RTreePR RTreeStrategy = RTreeStrategy(rtree.PR)
)

// String returns the conventional name of the strategy.
func (s RTreeStrategy) String() string { return rtree.Strategy(s).String() }

// RTree is a bulkloaded baseline R-tree. It is exposed so downstream
// users can reproduce the paper's comparisons on their own data; for
// dense data FLAT (Index) is the recommended structure.
type RTree struct {
	inner *rtree.Tree
	pool  *storage.ConcurrentPool
	pager storage.Pager
}

// RTreeStats reports the page reads of R-tree queries, split by
// node kind — the paper's leaf vs non-leaf overhead analysis.
type RTreeStats struct {
	InternalReads uint64
	LeafReads     uint64
}

// BuildRTree bulkloads a baseline R-tree over els (reordered in place)
// with the given strategy, in memory. Of opts only World and
// PageCapacity (which caps leaf entries) are consulted, and mean what
// they do for Build; the page cache is unbounded.
func BuildRTree(els []Element, strategy RTreeStrategy, opts *Options) (*RTree, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	pager := storage.NewMemPager()
	pool := storage.NewConcurrentPool(pager, 0)
	world := o.World
	if world.Empty() || world == (MBR{}) {
		world = geom.ElementsMBR(els)
	}
	tree, err := rtree.Build(pool, els, rtree.Strategy(strategy), world, rtree.Config{
		LeafCapacity: o.PageCapacity,
	})
	if err != nil {
		pager.Close()
		return nil, err
	}
	// Hand back a cold tree; see Build.
	pool.DropFrames()
	return &RTree{inner: tree, pool: pool, pager: pager}, nil
}

// RangeQuery returns all elements intersecting q and the page reads
// this traversal caused. It is safe for concurrent use: every call
// tallies its own cache misses, so calls running side by side are never
// charged each other's.
func (t *RTree) RangeQuery(q MBR) ([]Element, RTreeStats, error) {
	var local storage.Stats
	res, err := t.inner.Tally(&local).RangeQuery(q)
	return res, RTreeStats{
		InternalReads: local.Reads[storage.CatRTreeInternal],
		LeafReads:     local.Reads[storage.CatRTreeLeaf],
	}, err
}

// PointQuery returns all elements whose MBR contains p.
func (t *RTree) PointQuery(p Vec3) ([]Element, RTreeStats, error) {
	return t.RangeQuery(geom.PointBox(p))
}

// Len returns the number of indexed elements.
func (t *RTree) Len() int { return t.inner.Len() }

// Height returns the tree height in levels.
func (t *RTree) Height() int { return t.inner.Height() }

// SizeBytes returns the on-disk footprint.
func (t *RTree) SizeBytes() uint64 { return t.inner.SizeBytes() }

// DropCache empties the page cache so the next query starts cold.
func (t *RTree) DropCache() { t.pool.DropFrames() }

// Close releases the tree's storage.
func (t *RTree) Close() error { return t.pager.Close() }
