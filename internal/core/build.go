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
	ix := &Index{pool: pool, world: world, bounds: bounds, count: len(els), seedFanout: opts.SeedFanout,
		noMetaTiling: opts.NoMetaTiling, barePointers: opts.BarePointers, pageFormat: format}
	ix.quant = storage.NewQuantizer(world)
	totalStart := time.Now()

	// Phase 1: STR partitioning (paper: "Partitioning" in Figure 10).
	t0 := time.Now()
	parts := str.PartitionElements(els, capacity, world)
	ix.build.PartitionTime = time.Since(t0)
	ix.build.Partitions = len(parts)

	// Phase 2: neighborhood computation (paper: "Finding Neighbors" in
	// Figure 10) over an in-memory tree, discarded afterwards. It runs on
	// the partition MBRs as the metadata pages will store them, rounded
	// outward to the world's cells, so the relation the crawl follows is
	// the one between the boxes it reads.
	t1 := time.Now()
	cells := make([]geom.MBR, len(parts))
	boxes := make([]geom.MBR, len(parts))
	for i, p := range parts {
		cells[i], boxes[i] = p.Cell, ix.quant.Box(ix.quant.Cells(p.PartitionMBR))
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
	for i, p := range parts {
		id, err := ix.pool.Alloc(storage.CatObject)
		if err != nil {
			return err
		}
		if i == 0 {
			ix.objStart = id
		} else if id != ix.objStart+storage.PageID(i) {
			return fmt.Errorf("core: object page %d allocated at %d, not after %d", i, id, ix.objStart)
		}
		if err := storage.EncodeObjectPage(buf, ix.pageFormat, p.Elements); err != nil {
			return err
		}
		if err := ix.pool.Write(id, buf); err != nil {
			return err
		}
	}
	ix.objectPages = len(parts)

	// Metadata records, then their page assignment, at the narrowest ref
	// width that addresses the pages they fill.
	var (
		records   []*pendingRecord
		primaries []*pendingRecord // by partition index
		groups    [][2]int
		w         int
	)
	for w = minRefWidth; ; w++ {
		var err error
		records, primaries, groups, err = ix.layoutRecords(parts, neighborIdx, w)
		if err != nil {
			return err
		}
		if len(groups) <= maxMetaPages(w) {
			break
		}
		if w == maxRefWidth {
			return fmt.Errorf("core: %d metadata pages exceed the %d a %d-byte ref addresses", len(groups), maxMetaPages(w), w)
		}
	}
	for g := range groups {
		id, err := ix.pool.Alloc(storage.CatMetadata)
		if err != nil {
			return err
		}
		if id != ix.metaStart()+storage.PageID(g) {
			return fmt.Errorf("core: metadata page %d allocated at %d, not after %d", g, id, ix.metaStart())
		}
	}
	ix.metadataPages = len(groups)
	// Neighbor pointers are resolved now that packing fixed every
	// record's (page, slot): each carries its neighbor's ref and the box
	// of its partition cells.
	for _, m := range records {
		for j, k := range m.nbIdx {
			m.neighbors[j] = pendingNeighbor{ref: primaries[k].self, box: neighborBox(primaries[k].partCells)}
		}
	}
	for g, span := range groups {
		encodeMetaPage(buf, records[span[0]:span[1]], w)
		if err := ix.pool.Write(ix.metaStart()+storage.PageID(g), buf); err != nil {
			return err
		}
	}

	// Seed tree: internal levels above the metadata pages. Each leaf-
	// level entry indexes a metadata page by the union of the page MBRs
	// of the records it holds (the paper indexes "each record R with R's
	// page MBR as key"; records on the same leaf share one subtree
	// entry) — as the page stores them, rounded outward, so the key
	// bounds every page MBR a query decodes beneath it.
	seedEntries := make([]rtree.NodeEntry, len(groups))
	for g, span := range groups {
		box := geom.EmptyMBR()
		for i := span[0]; i < span[1]; i++ {
			if records[i].objOrd != noObject {
				box = box.Union(ix.quant.Box(records[i].pageCells))
			}
		}
		if box.Empty() {
			// The page holds only overflow records (a very long chain);
			// key it under its owning primary's box so the seed tree
			// stays well-formed.
			for i := span[0] - 1; i >= 0; i-- {
				if records[i].objOrd != noObject {
					box = ix.quant.Box(records[i].pageCells)
					break
				}
			}
		}
		seedEntries[g] = rtree.NodeEntry{Box: box, Ref: uint64(ix.metaStart() + storage.PageID(g))}
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

// layoutRecords builds the metadata records of parts at ref width w and
// packs them onto pages. The paper stores the records in the leaves of
// the seed tree (an R-tree over the page MBRs), so spatially close
// records share a leaf: we reproduce that by STR-tiling the records in
// 3D on their page-MBR centers before packing, which is what keeps the
// crawl's record "shell" on few metadata pages. A neighbor list too long
// for one record continues in chained overflow records placed right
// after their primary. It returns the records in on-disk order, the
// primaries by partition index, and the page groups.
func (ix *Index) layoutRecords(parts []str.Partition, neighborIdx [][]int, w int) (records, primaries []*pendingRecord, groups [][2]int, err error) {
	maxInline := maxInlineNeighbors(w)
	overflows := 0
	primaries = make([]*pendingRecord, len(parts))
	for i, p := range parts {
		m := &pendingRecord{
			pageCells: ix.quant.Cells(p.PageMBR),
			partCells: ix.quant.Cells(p.PartitionMBR),
			objOrd:    uint32(i),
			center:    p.PageMBR.Center(),
			nbIdx:     neighborIdx[i],
		}
		rest := m.nbIdx[min(len(m.nbIdx), maxInline):]
		m.nbIdx = m.nbIdx[:len(m.nbIdx)-len(rest)]
		m.neighbors = make([]pendingNeighbor, len(m.nbIdx))
		for prev := m; len(rest) > 0; overflows++ {
			n := min(len(rest), maxInline)
			ov := &pendingRecord{objOrd: noObject, nbIdx: rest[:n], neighbors: make([]pendingNeighbor, n)}
			rest = rest[n:]
			prev.next = ov
			prev = ov
		}
		primaries[i] = m
	}
	ordered := append([]*pendingRecord(nil), primaries...)
	if !ix.noMetaTiling {
		tileMetaRecords(ordered, w)
	}
	// Final on-disk record order: each primary followed by its chain.
	records = make([]*pendingRecord, 0, len(parts)+overflows)
	for _, m := range ordered {
		for r := m; r != nil; r = r.next {
			records = append(records, r)
		}
	}
	groups, err = packMetaPages(records, w)
	ix.build.OverflowRecords = overflows
	return records, primaries, groups, err
}
