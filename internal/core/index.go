// Package core implements FLAT, the paper's primary contribution: a
// two-phase (seed + crawl) spatial index for dense, mostly-static 3D
// data sets.
//
// # Data structures (Section V-B)
//
//   - Object pages hold the spatial elements, packed in STR order. They
//     use the same on-page layout as R-tree leaves (73 MBR+id entries per
//     4 KiB page).
//   - Metadata records — one per object page — hold the page MBR, the
//     partition MBR, a pointer to the object page, and pointers to the
//     records of all neighboring partitions. Records are variable-size
//     and packed into the leaf pages of the seed tree in STR order, which
//     preserves the spatial locality of neighboring records. Each pointer
//     also carries a coarse box of the neighbor's partition, an extension
//     of the paper's bare pointer (see metadata.go).
//   - The seed index is an R-tree built (with BuildAbove) over the
//     metadata pages; its leaf level *is* the metadata pages.
//
// # Query execution (Section VI)
//
// A range query first walks a single pruned path of the seed tree until
// it finds a metadata record whose object page contains an element
// intersecting the query (seed phase), then breadth-first-searches the
// neighborhood pointers, reading an object page only when its page MBR
// intersects the query and expanding neighbors only when the partition
// MBR does (crawl phase, Algorithm 2) — and following a neighbor pointer
// only when its box does.
package core

import (
	"time"

	"flat/internal/geom"
	"flat/internal/storage"
)

// Options configures FLAT index construction.
type Options struct {
	// PageCapacity is the maximum number of elements per object page.
	// Zero means a full 4 KiB page. It must not exceed the page
	// capacity: 73 for v1, and for v2 storage.ObjectPageCapacityForSpan
	// of the input's id span (161, 155, 149, 144, 139, 134 or 130 for
	// ids spanning under 2^8, 2^16, …, 2^56; 126 for arbitrary ids).
	PageCapacity int
	// World is the space to partition. The partition cells tile this box
	// exactly, which is what guarantees the "no empty space" property.
	// Empty means the MBR of the data set.
	World geom.MBR
	// SeedFanout caps the entries per seed-tree internal node. Zero means
	// a full page. The benchmark harness reduces it together with
	// PageCapacity to reproduce the paper's tree depths at reproduction
	// scale (see bench.Config.NodeCapacity).
	SeedFanout int
	// NoMetaTiling disables the 3D STR tiling of metadata records into
	// seed-tree leaf pages and packs them in plain partition order
	// instead. Exists only for the ablation experiment that quantifies
	// the locality the paper obtains by storing records in R-tree leaves
	// (Section V-B.2).
	NoMetaTiling bool
	// BarePointers makes the range crawl ignore the boxes neighbor
	// pointers carry and follow every neighbor of an expanded partition,
	// as the paper's bare pointers do. The pages are the same. Exists
	// only for the ablation experiment that prices the boxed pointer; a
	// reopened index always uses the boxes.
	BarePointers bool
	// PageFormat selects the object-page layout: v1 (full float64 MBRs,
	// the original layout) or v2 (per-page reference MBR + quantized u32
	// cells + ids as offsets from a per-page base: 126 to 161 elements
	// per page by id span instead of 73; see
	// storage.ObjectPageCapacityForSpan). Zero means
	// storage.DefaultPageFormat. The format is recorded in the
	// superblock; queries decode per page, so it never needs to be
	// supplied again at open time.
	PageFormat storage.PageFormat
}

// BuildStats reports where index-construction time went, matching the
// breakdown of the paper's Figure 10 (Partitioning vs Finding Neighbors).
type BuildStats struct {
	PartitionTime time.Duration // STR pass + MBR computation
	NeighborTime  time.Duration // in-memory tree over the cells + one search per partition
	WriteTime     time.Duration // serializing object/metadata/seed pages
	TotalTime     time.Duration
	Partitions    int // number of partitions = object pages
	NeighborLinks int // total directed neighbor pointers stored
	// OverflowRecords counts continuation records created for partitions
	// whose neighbor list exceeded a single metadata record (extremely
	// elongated elements stretch one partition's MBR across many cells).
	OverflowRecords int
}

// Index is a built FLAT index. All page access during queries goes
// through the storage.Pool supplied at build time, and every query
// tallies each distinct page it reads once (ReadInto) into the
// QueryStats it returns: exactly the cold page reads the paper reports,
// whatever ran before it or runs against the pool at the same time.
//
// The index itself is immutable after Build/Open: every query method is
// safe for concurrent use when the pool is (storage.ConcurrentPool is);
// a view over a caller's own Pool (WithPool) is as safe as that pool.
type Index struct {
	// Everything a query needs at run time: the page pool plus the
	// seed-tree root and height. The rest is build-time metadata.
	pool       storage.Pool
	seedRoot   storage.PageID
	seedHeight int // levels including the metadata (leaf) level

	world  geom.MBR
	bounds geom.MBR
	count  int

	metaLayout   // page runs and world quantizer the metadata records use
	seedInternal int
	seedFanout   int
	noMetaTiling bool
	barePointers bool
	pageFormat   storage.PageFormat

	build BuildStats
}

// Pool returns the page pool the index reads through.
func (ix *Index) Pool() storage.Pool { return ix.pool }

// SeedHeight returns the height of the seed tree in levels, counting the
// metadata level as level 1.
func (ix *Index) SeedHeight() int { return ix.seedHeight }

// Len returns the number of indexed elements.
func (ix *Index) Len() int { return ix.count }

// World returns the partitioned space.
func (ix *Index) World() geom.MBR { return ix.world }

// Bounds returns the MBR of the indexed elements.
func (ix *Index) Bounds() geom.MBR { return ix.bounds }

// NumPartitions returns the number of partitions (= object pages).
func (ix *Index) NumPartitions() int { return ix.build.Partitions }

// PageFormat returns the object-page layout the index was built with.
func (ix *Index) PageFormat() storage.PageFormat { return ix.pageFormat }

// PageCounts returns the number of object, metadata and seed-internal
// pages.
func (ix *Index) PageCounts() (object, metadata, seedInternal int) {
	return ix.objectPages, ix.metadataPages, ix.seedInternal
}

// MetadataKind returns the kind byte of the index's metadata pages (see
// metadata.go): one Build writes them all, so the first page's tells.
// Queries read only kind 4; shard.OpenSet upgrades an index of an older
// kind by rebuilding it. The page is read from the pager, untallied.
func (ix *Index) MetadataKind() (int, error) {
	page, err := ix.pool.Pager().ReadPage(ix.metaStart())
	if err != nil {
		return 0, err
	}
	return int(storage.NewPageReader(page).U8()), nil
}

// Elements returns every element the index holds, in object-page order:
// one pass over the object-page run. Object pages are the same whatever
// kind of metadata page the index was written with, so this enumerates
// an index its queries refuse (see MetadataKind).
func (ix *Index) Elements() ([]geom.Element, error) {
	els := make([]geom.Element, 0, ix.count)
	//lint:ignore ctxcrawl the rebuild's extraction, never on a serving query path
	for i := range ix.objectPages {
		page, err := ix.pool.ReadInto(ix.objStart+storage.PageID(i), nil)
		if err != nil {
			return nil, err
		}
		if els, err = storage.DecodeObjectPageInto(page, els); err != nil {
			return nil, err
		}
	}
	return els, nil
}

// SizeBytes returns the total on-disk footprint of the index.
func (ix *Index) SizeBytes() uint64 {
	return uint64(ix.objectPages+ix.metadataPages+ix.seedInternal) * storage.PageSize
}

// BuildStats returns the construction-time breakdown.
func (ix *Index) BuildStats() BuildStats { return ix.build }

// WithPool returns a shallow view of the index that performs its page
// reads through pool, which must wrap the same pager (or an identically
// laid-out one). Views share all immutable index state with the
// original; they exist so measurement code can wrap the pool to watch a
// query's page reads.
func (ix *Index) WithPool(pool storage.Pool) *Index {
	cp := *ix
	cp.pool = pool
	return &cp
}

// NeighborHistogram returns how many partitions have each neighbor-
// pointer count — the distribution of the paper's Figure 20. It is read
// off the metadata pages (Records), so a reopened index reports what the
// built one did.
func (ix *Index) NeighborHistogram() (map[int]int, error) {
	h := make(map[int]int)
	err := ix.Records(func(r Record) error {
		h[len(r.Neighbors)]++
		return nil
	})
	return h, err
}

// AvgNeighbors returns the mean number of neighbor pointers per
// partition over the partitions of every index in ixs (Figure 21's
// y-axis), read off their neighbor histograms; 0 when they have none.
func AvgNeighbors(ixs ...*Index) (float64, error) {
	pointers, partitions := 0, 0
	for _, ix := range ixs {
		h, err := ix.NeighborHistogram()
		if err != nil {
			return 0, err
		}
		for n, count := range h {
			pointers += n * count
			partitions += count
		}
	}
	if partitions == 0 {
		return 0, nil
	}
	return float64(pointers) / float64(partitions), nil
}
