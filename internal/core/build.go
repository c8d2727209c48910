package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
	"flat/internal/str"
)

// ErrEmpty is returned when building an index over zero elements.
var ErrEmpty = errors.New("core: cannot build an empty FLAT index")

// Build bulkloads a FLAT index over els, implementing the paper's
// Algorithm 1:
//
//  1. Partition the elements with an STR pass into page-sized groups and
//     derive each group's page MBR and (stretched) partition MBR.
//  2. Pack all partition cells into an in-memory STR tree and, for every
//     partition, retrieve the intersecting partitions — its neighbors.
//  3. Write the object pages, pack the metadata records into seed-tree
//     leaf pages, and build the seed tree's internal levels above them.
//
// els is reordered in place by the STR pass. The supplied pool receives
// all of the index's pages; queries account their page reads against it.
// Build itself is single-threaded; the finished index's query methods
// are as safe for concurrent use as pool is (storage.ConcurrentPool is).
func Build(pool storage.Pool, els []geom.Element, opts Options) (*Index, error) {
	if len(els) == 0 {
		return nil, ErrEmpty
	}
	format := opts.PageFormat
	if format == 0 {
		format = storage.DefaultPageFormat
	}
	if !format.Valid() {
		return nil, fmt.Errorf("core: unknown page format %d", uint8(format))
	}
	// The page capacity bound depends on the format and, for v2, on the
	// input's id span: v2 stores each id as an offset from its page's
	// minimum, so ids spanning under 2^24 fit 149 a page and arbitrary
	// 64-bit ids 126, against v1's 73. No page's span exceeds the
	// input's, so every page fits. A full page is the default, so v2
	// builds produce proportionally fewer (and larger) partitions.
	lo, hi := els[0].ID, els[0].ID
	for i := range els {
		lo, hi = min(lo, els[i].ID), max(hi, els[i].ID)
	}
	maxCapacity := storage.ObjectPageCapacityForSpan(format, hi-lo)
	capacity := opts.PageCapacity
	if capacity == 0 {
		capacity = maxCapacity
	}
	if capacity < 1 || capacity > maxCapacity {
		return nil, fmt.Errorf("core: page capacity %d out of range [1,%d] for format %s", capacity, maxCapacity, format)
	}
	bounds := geom.ElementsMBR(els)
	world := opts.World
	if world.Empty() || world == (geom.MBR{}) {
		world = bounds
	} else {
		// The partition cells must cover every element; grow the world to
		// the data bounds if the caller's box is too small.
		world = world.Union(bounds)
	}

	if opts.SeedFanout < 0 || opts.SeedFanout > rtree.NodeCapacity {
		return nil, fmt.Errorf("core: seed fanout %d out of range [0,%d]", opts.SeedFanout, rtree.NodeCapacity)
	}
	ix := &Index{pool: pool, world: world, bounds: bounds, count: len(els), seedFanout: opts.SeedFanout, noMetaTiling: opts.NoMetaTiling, pageFormat: format}
	totalStart := time.Now()

	// Phase 1: STR partitioning (paper: "Partitioning" in Figure 10).
	t0 := time.Now()
	parts := str.PartitionElements(els, capacity, world)
	ix.build.PartitionTime = time.Since(t0)
	ix.build.Partitions = len(parts)

	// Phase 2: neighborhood computation (paper: "Finding Neighbors" in
	// Figure 10) over an in-memory tree, discarded afterwards.
	t1 := time.Now()
	cells := make([]geom.MBR, len(parts))
	boxes := make([]geom.MBR, len(parts))
	for i, p := range parts {
		cells[i], boxes[i] = p.Cell, p.PartitionMBR
	}
	neighborIdx, links := Neighbors(cells, boxes)
	ix.build.NeighborTime = time.Since(t1)
	ix.build.NeighborLinks = links

	// Phase 3: write object pages, metadata pages and the seed tree.
	t2 := time.Now()
	if err := ix.write(parts, neighborIdx); err != nil {
		return nil, err
	}
	ix.build.WriteTime = time.Since(t2)
	ix.build.TotalTime = time.Since(totalStart)
	return ix, nil
}

// Neighbors is Algorithm 1's neighbor step, the one neighbor relation
// of the index: an in-memory str.Tree over the partition cells (the
// tree the staged delta's runs are) and one search per partition with
// its box — the (stretched) partition MBR when Build calls it, an
// inflated one in fig21's partition-volume sweep. Partitions i and k are
// neighbors when boxes[i] intersects cells[k] or vice versa — the paper's
// "partition adjacent to or overlapping A" relation. Querying against
// the unstretched cells (rather than stretched-vs-stretched boxes) keeps
// neighbor lists tight while preserving the crawl's completeness
// guarantee: the breadth-first search only ever needs to cross from a
// partition's MBR into the space-tiling cell that covers the next piece
// of the query region, and the relation is symmetrized so both crossing
// directions exist.
//
// It returns, per partition, the indices of its neighbors (self
// excluded, ascending) and the total number of directed links.
func Neighbors(cells, boxes []geom.MBR) (neighbors [][]int, links int) {
	pos := make([]int32, len(cells))
	for i := range pos {
		pos[i] = int32(i)
	}
	cell := func(p int32) geom.MBR { return cells[p] }
	tree := str.Pack(pos, cell)
	neighbors = make([][]int, len(cells))
	for i, box := range boxes {
		tree.Search(box, cell, func(p int32) {
			if k := int(p); k != i {
				neighbors[i] = append(neighbors[i], k)
				neighbors[k] = append(neighbors[k], i) // symmetrize
			}
		})
	}
	for i, nb := range neighbors {
		slices.Sort(nb)
		neighbors[i] = slices.Compact(nb)
		links += len(neighbors[i])
	}
	return neighbors, links
}

// write materializes the three data structures on the buffer pool.
func (ix *Index) write(parts []str.Partition, neighborIdx [][]int) error {
	buf := make([]byte, storage.PageSize)

	// Object pages, in STR order (preserves spatial locality on disk),
	// encoded under the index's page format (v1 full-precision or v2
	// quantized — see internal/storage's object-page codec).
	objIDs := make([]storage.PageID, len(parts))
	for i, p := range parts {
		id, err := ix.pool.Alloc(storage.CatObject)
		if err != nil {
			return err
		}
		if err := storage.EncodeObjectPage(buf, ix.pageFormat, p.Elements); err != nil {
			return err
		}
		if err := ix.pool.Write(id, buf); err != nil {
			return err
		}
		objIDs[i] = id
	}
	ix.objStart = objIDs[0]
	ix.objectPages = len(parts)

	// Metadata records, then their page assignment. The paper stores the
	// records in the leaves of the seed tree (an R-tree over the page
	// MBRs), so spatially close records share a leaf: we reproduce that
	// by STR-tiling the records in 3D on their page-MBR centers before
	// packing, which is what keeps the crawl's record "shell" on few
	// metadata pages. A neighbor list too long for one record continues
	// in chained overflow records placed right after their primary.
	// Neighbor refs are resolved after the page assignment fixes every
	// record's (page, slot).
	primaries := make([]*metaRecord, len(parts))
	for i, p := range parts {
		m := &metaRecord{
			PageMBR:      p.PageMBR,
			PartitionMBR: p.PartitionMBR,
			ObjectPage:   objIDs[i],
			Overflow:     noRef,
			nbIdx:        neighborIdx[i],
			partIdx:      i,
		}
		m.Neighbors = make([]RecordRef, len(m.nbIdx))
		if len(m.nbIdx) > maxInlineNeighbors {
			rest := m.nbIdx[maxInlineNeighbors:]
			m.nbIdx = m.nbIdx[:maxInlineNeighbors]
			m.Neighbors = m.Neighbors[:maxInlineNeighbors]
			prev := m
			for len(rest) > 0 {
				n := len(rest)
				if n > maxInlineNeighbors {
					n = maxInlineNeighbors
				}
				ov := &metaRecord{
					PageMBR:      geom.EmptyMBR(),
					PartitionMBR: geom.EmptyMBR(),
					ObjectPage:   storage.InvalidPage,
					Overflow:     noRef,
					nbIdx:        rest[:n],
					Neighbors:    make([]RecordRef, n),
				}
				rest = rest[n:]
				prev.next = ov
				prev = ov
				ix.build.OverflowRecords++
			}
		}
		primaries[i] = m
	}
	if !ix.noMetaTiling {
		tileMetaRecords(primaries)
	}
	// Final on-disk record order: each primary followed by its chain.
	records := make([]*metaRecord, 0, len(primaries)+ix.build.OverflowRecords)
	for _, m := range primaries {
		for r := m; r != nil; r = r.next {
			records = append(records, r)
		}
	}
	groups, err := packMetaPages(records)
	if err != nil {
		return err
	}
	metaIDs := make([]storage.PageID, len(groups))
	for g, span := range groups {
		id, err := ix.pool.Alloc(storage.CatMetadata)
		if err != nil {
			return err
		}
		metaIDs[g] = id
		for i := span[0]; i < span[1]; i++ {
			records[i].selfRef = makeRef(id, i-span[0])
		}
	}
	// refs maps a partition index to its primary record's location
	// (tiling permuted the primaries slice, so use the stored index).
	refs := make([]RecordRef, len(parts))
	for _, m := range primaries {
		refs[m.partIdx] = m.selfRef
	}
	for _, m := range records {
		for j, n := range m.nbIdx {
			m.Neighbors[j] = refs[n]
		}
		if m.next != nil {
			m.Overflow = m.next.selfRef
		}
	}
	for g, span := range groups {
		encodeMetaPage(buf, records[span[0]:span[1]])
		if err := ix.pool.Write(metaIDs[g], buf); err != nil {
			return err
		}
	}
	ix.metadataPages = len(groups)

	// Seed tree: internal levels above the metadata pages. Each leaf-
	// level entry indexes a metadata page by the union of the page MBRs
	// of the records it holds (the paper indexes "each record R with R's
	// page MBR as key"; records on the same leaf share one subtree
	// entry).
	seedEntries := make([]rtree.NodeEntry, len(groups))
	for g, span := range groups {
		box := geom.EmptyMBR()
		for i := span[0]; i < span[1]; i++ {
			box = box.Union(records[i].PageMBR)
		}
		if box.Empty() {
			// The page holds only overflow records (a very long chain);
			// key it under its owning primary's box so the seed tree
			// stays well-formed.
			for i := span[0] - 1; i >= 0; i-- {
				if records[i].ObjectPage != storage.InvalidPage {
					box = records[i].PageMBR
					break
				}
			}
		}
		seedEntries[g] = rtree.NodeEntry{Box: box, Ref: uint64(metaIDs[g])}
	}
	root, height, internalPages, err := rtree.BuildAbove(ix.pool, seedEntries, rtree.Config{
		InternalCapacity: ix.seedFanout,
		InternalCat:      storage.CatSeedInternal,
	})
	if err != nil {
		return err
	}
	ix.seedRoot = root
	ix.seedHeight = height
	ix.seedInternal = internalPages
	return nil
}
