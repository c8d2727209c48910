package core

import (
	"encoding/binary"
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
	// the partition MBRs in world cells, widened by the largest rounding
	// a page frame can add (widenCells), so it holds between the boxes
	// the crawl reads whatever page a record lands on.
	t1 := time.Now()
	cells := make([]geom.MBR, len(parts))
	boxes := make([]geom.MBR, len(parts))
	for i, p := range parts {
		cells[i], boxes[i] = p.Cell, ix.quant.Box(widenCells(ix.quant.Cells(p.PartitionMBR)))
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

	// Metadata records and their page assignment, then per page its
	// frame, and per partition its cells rounded to its own page's
	// frame: what every pointer to it stores a box around.
	records, groups := ix.layoutRecords(parts, neighborIdx)
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
	frames := make([][6]uint32, len(groups))
	pageBoxes := make([]geom.MBR, len(groups)) // decoded page MBRs' union
	for g, span := range groups {
		frames[g] = frameBase(records[span[0]:span[1]])
		rf, err := newRecordFrames(frames[g])
		if err != nil {
			return err
		}
		pageBoxes[g] = geom.EmptyMBR()
		for _, m := range records[span[0]:span[1]] {
			if m.objOrd != noObject {
				var pageCells [6]uint32
				pageCells, m.decodedPart = rf.cells(rf.values(m.pageCells, m.partCells))
				pageBoxes[g] = pageBoxes[g].Union(ix.quant.Box(pageCells))
			}
		}
	}
	for g, span := range groups {
		encodeMetaPage(buf, records[span[0]:span[1]], frames[g], metaBoxBits)
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
	for g := range groups {
		// A page holding only overflow records (a very long chain) is
		// keyed under the last page before it with a primary, which
		// holds the chain's owner, so the seed tree stays well-formed.
		box := pageBoxes[g]
		for k := g - 1; box.Empty() && k >= 0; k-- {
			box = pageBoxes[k]
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

// layoutRecords builds the metadata records of parts and packs them
// onto metadata pages. The paper stores the records in the leaves of the
// seed tree (an R-tree over the page MBRs), so spatially close records
// share a leaf: we reproduce that by STR-tiling the records in 3D on
// their page-MBR centers before packing, which is what keeps the crawl's
// record "shell" on few metadata pages. A neighbor list too long for one
// record continues in chained overflow records placed right after their
// primary. It returns the records in on-disk order and the page groups.
func (ix *Index) layoutRecords(parts []str.Partition, neighborIdx [][]int) (records []*pendingRecord, groups [][2]int) {
	links := 0
	for _, nb := range neighborIdx {
		links += len(nb)
	}
	maxInline := maxInlineNeighbors(len(parts), links)
	overflows := 0
	primaries := make([]*pendingRecord, len(parts))
	for i, p := range parts {
		primaries[i] = &pendingRecord{
			pageCells: ix.quant.Cells(p.PageMBR),
			partCells: ix.quant.Cells(p.PartitionMBR),
			objOrd:    uint32(i),
			center:    p.PageMBR.Center(),
		}
	}
	for i, m := range primaries {
		nbs := make([]*pendingRecord, len(neighborIdx[i]))
		for j, k := range neighborIdx[i] {
			nbs[j] = primaries[k]
		}
		m.nbs, nbs = nbs[:min(len(nbs), maxInline)], nbs[min(len(nbs), maxInline):]
		for prev := m; len(nbs) > 0; overflows++ {
			n := min(len(nbs), maxInline)
			ov := &pendingRecord{objOrd: noObject, nbs: nbs[:n]}
			nbs = nbs[n:]
			prev.next = ov
			prev = ov
		}
	}
	ordered := append([]*pendingRecord(nil), primaries...)
	if !ix.noMetaTiling {
		tileMetaRecords(ordered, metaBoxBits)
	}
	// Final on-disk record order: each primary followed by its chain.
	records = make([]*pendingRecord, 0, len(parts)+overflows)
	for _, m := range ordered {
		for r := m; r != nil; r = r.next {
			records = append(records, r)
		}
	}
	ix.build.OverflowRecords = overflows
	return records, packMetaPages(records, metaBoxBits)
}

// maxInlineNeighbors is the longest neighbor list one record holds
// in an index of partitions partitions and links neighbor links; longer
// lists continue in overflow records. It is sized so that a record alone
// fits a page whatever refs packing gives it: an index has at most one
// record per partition and link, so no ref gap exceeds that many pages.
func maxInlineNeighbors(partitions, links int) int {
	worstGap := uvarintLen(zigzag(int64(partitions+links) << slotBits))
	return (maxFramedRecord - framedCellsSize - 3*binary.MaxVarintLen64 - 1) * 8 / (8*worstGap + 6*metaBoxBits)
}
