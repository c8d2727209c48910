// Package rtree implements the disk-based R-tree baselines the paper
// compares FLAT against: bulkloaded with Sort-Tile-Recursive (STR,
// Leutenegger et al.), with the Hilbert curve (Kamel & Faloutsos), and
// with the Priority-R-tree algorithm (Arge et al., SIGMOD'04).
//
// All variants share one on-disk node format (one node per 4 KiB page)
// and one query engine; they differ only in how elements are packed onto
// leaf pages and how nodes are grouped into parents. Following the
// paper's setup, nodes are filled to 100% where the strategy permits.
//
// The package also exposes the node decoder and a BuildAbove helper so
// that FLAT (internal/core) can reuse the same internal-node machinery
// for its seed index while packing its own metadata leaf pages.
package rtree

import (
	"fmt"
	"slices"

	"flat/internal/geom"
	"flat/internal/storage"
)

// nodeHeaderSize is the per-page header: kind (u8), pad (u8), count (u16).
const nodeHeaderSize = 4

// entrySize is the on-page size of a node entry: an MBR plus a 64-bit
// reference (child page id for internal nodes, element id for leaves).
const entrySize = storage.MBRSize + 8

// NodeCapacity is the number of entries per 4 KiB node page. With 48-byte
// MBRs, an 8-byte reference and a 4-byte header this is 73. (The paper
// packs 85 bare MBRs; the extra 8 bytes per entry are the element id,
// see storage.ElementSize.)
const NodeCapacity = (storage.PageSize - nodeHeaderSize) / entrySize

// Node kinds.
const (
	kindInternal = 0
	kindLeaf     = 1
)

// NodeEntry is one decoded slot of a node page.
type NodeEntry struct {
	Box geom.MBR
	Ref uint64 // child page id (internal) or element id (leaf)
}

// encodeNode serializes a node into buf (at least storage.PageSize long).
// It panics if entries exceed NodeCapacity; bulkloaders never produce
// oversized nodes.
func encodeNode(buf []byte, isLeaf bool, entries []NodeEntry) {
	if len(entries) > NodeCapacity {
		panic(fmt.Sprintf("rtree: node with %d entries exceeds capacity %d", len(entries), NodeCapacity))
	}
	w := storage.NewPageWriter(buf)
	kind := byte(kindInternal)
	if isLeaf {
		kind = kindLeaf
	}
	w.PutU8(kind)
	w.PutU8(0)
	w.PutU16(uint16(len(entries)))
	for _, e := range entries {
		w.PutMBR(e.Box)
		w.PutU64(e.Ref)
	}
	if w.Overflow() {
		panic("rtree: node encoding overflowed page")
	}
}

// DecodeNodeInto parses a node page appending entries to dst (nil: a
// fresh slice) to avoid allocation in query loops. It returns the node
// kind and the extended slice. The bytes come from a file: a short page,
// an unknown kind byte or a count no page can hold is an error, never an
// out-of-range read.
func DecodeNodeInto(page []byte, dst []NodeEntry) (isLeaf bool, entries []NodeEntry, err error) {
	if len(page) < storage.PageSize {
		return false, dst, fmt.Errorf("rtree: corrupt node: %d-byte page", len(page))
	}
	r := storage.NewPageReader(page)
	kind := r.U8()
	r.U8()
	count := int(r.U16())
	if kind != kindInternal && kind != kindLeaf {
		return false, dst, fmt.Errorf("rtree: corrupt node: unknown kind byte %#x", kind)
	}
	if count > NodeCapacity {
		return false, dst, fmt.Errorf("rtree: corrupt node: %d entries exceed capacity %d", count, NodeCapacity)
	}
	dst = slices.Grow(dst, count)
	for i := 0; i < count; i++ {
		dst = append(dst, NodeEntry{Box: r.MBR(), Ref: r.U64()})
	}
	return kind == kindLeaf, dst, nil
}

// readNode reads node page id from pool, counting the read into local
// (which may be nil), and decodes it onto dst; a page that does
// not decode is reported under its id.
func readNode(pool storage.Pool, id storage.PageID, local *storage.Stats, dst []NodeEntry) (isLeaf bool, entries []NodeEntry, err error) {
	page, err := pool.ReadInto(id, local)
	if err != nil {
		return false, dst, err
	}
	if isLeaf, entries, err = DecodeNodeInto(page, dst); err != nil {
		err = fmt.Errorf("page %d: %w", id, err)
	}
	return isLeaf, entries, err
}

// nodeMBR returns the union of a node's entry boxes.
func nodeMBR(entries []NodeEntry) geom.MBR {
	m := geom.EmptyMBR()
	for _, e := range entries {
		m = m.Union(e.Box)
	}
	return m
}
