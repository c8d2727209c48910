package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"flat/internal/geom"
	"flat/internal/storage"
	"flat/internal/str"
)

// RecordRef addresses a metadata record on disk: the metadata page id in
// the upper 48 bits and the slot within the page in the lower 16. This is
// the "pointer to the neighbor's metadata record" of Section V-B.2 —
// following it costs at most one (possibly buffered) page read. It is the
// in-memory form; a kind-3 page stores refs narrower (see below).
type RecordRef uint64

// makeRef packs a page id and slot into a RecordRef.
func makeRef(page storage.PageID, slot int) RecordRef {
	//lint:ignore pageidpack packs a whole PageID beside a slot; the shard tag is opaque here
	return RecordRef(uint64(page)<<16 | uint64(slot)&0xffff)
}

// Page returns the metadata page holding the record.
//
//lint:ignore pageidpack recovers the whole PageID; the shard tag is opaque here
func (r RecordRef) Page() storage.PageID { return storage.PageID(uint64(r) >> 16) }

// Slot returns the record's slot within its page.
func (r RecordRef) Slot() int { return int(uint64(r) & 0xffff) }

// String implements fmt.Stringer.
func (r RecordRef) String() string { return fmt.Sprintf("meta(%d:%d)", r.Page(), r.Slot()) }

// noRef marks "no record" (used for the overflow chain terminator).
const noRef = RecordRef(^uint64(0))

// Metadata pages. Both kinds share a header and a slot directory, which
// gives O(1) access to a record by slot — the crawl's cost of following
// a RecordRef:
//
//	[kind u8][w u8][count u16]                4-byte header
//	[offset u16 x count]                      slot directory
//	[record x count]                          variable-size records
//
// Kind 2 is the paper's layout (Section V-B.2): full float64 MBRs and
// bare u64 pointers. It is no longer written; pages of indexes built
// before kind 3 existed decode through the same reader. Its w byte is 0.
//
//	PageMBR 6×f64 | PartitionMBR 6×f64 | object page u64 | overflow ref u64
//	| neighbor count u32 | count × ref u64                   (116 + 8n bytes)
//
// Kind 3 is what Build writes. MBRs are six u32 cells each, quantized
// against the index world by storage.Quantizer (mins round down, maxes
// store their distance from the world top, rounded down), so a decoded
// box contains the exact one. Pages and records are addressed by
// ordinals: the object page counts from objStart (all ones: an overflow
// continuation, which has none), and a ref is its record's metadata-page
// ordinal, counted from metaStart = objStart + objectPages, shifted left
// slotBits and or'd with the slot (all ones: no record). w, the ref
// width in bytes, is the smallest of 2, 3 and 4 that addresses every
// metadata page of the index. Each neighbor pointer carries a 6-byte box:
// per axis the top byte of the neighbor's min cell and of its max cell,
// which contains the neighbor's decoded PartitionMBR — so a crawl can
// tell a neighbor's partition misses the query without reading it.
//
//	PageMBR 6×u32 | PartitionMBR 6×u32 | object ordinal u32 | overflow ref w
//	| neighbor count u16 | count × { ref w | box 6×u8 }   (54 + w + (w+6)n bytes)
//
// The boxed pointer extends the paper, whose pointers are bare.
const (
	metaKindBare  = 2
	metaKindBoxed = 3

	// metaPageOverhead is the fixed header size; each record additionally
	// costs 2 bytes of slot directory.
	metaPageOverhead = 4
	// maxRecordSize is the largest record that fits an otherwise empty page.
	maxRecordSize = storage.PageSize - metaPageOverhead - 2

	bareHeaderSize = 2*storage.MBRSize + 8 + 8 + 4
	bareRefWidth   = 8 // a kind-2 ref is a whole RecordRef
	boxSize        = 6 // per axis the min byte, then per axis the max byte

	slotBits            = 7
	minRefWidth         = 2
	maxRefWidth         = 4
	noObject            = math.MaxUint32 // object ordinal of an overflow continuation
	maxBareNeighbors    = (maxRecordSize - bareHeaderSize) / bareRefWidth
	maxBareRecords      = (storage.PageSize - metaPageOverhead) / (2 + bareHeaderSize)
	maxBoxedRecords     = (storage.PageSize - metaPageOverhead) / (2 + boxedCellsAndObject + minRefWidth + 2)
	_                   = uint(1<<slotBits - 1 - maxBoxedRecords) // every slot fits slotBits, and all ones is no slot
	boxedCellsAndObject = 2*6*4 + 4
)

// boxedHeaderSize is the fixed part of a kind-3 record with w-byte refs.
func boxedHeaderSize(w int) int { return boxedCellsAndObject + w + 2 }

// maxInlineNeighbors is the longest neighbor list one kind-3 record with
// w-byte refs holds; longer lists continue in overflow records.
func maxInlineNeighbors(w int) int {
	return (maxRecordSize - boxedHeaderSize(w)) / (w + boxSize)
}

// maxMetaPages is how many metadata pages w-byte refs address.
func maxMetaPages(w int) int { return 1 << (8*w - slotBits) }

// noRefBits is the stored form of noRef at width w: all ones.
func noRefBits(w int) uint64 { return 1<<(8*w) - 1 }

// metaLayout is what a kind-3 record means beyond its page bytes: the
// world its cells quantize against and the page runs its ordinals count
// from. Build fixes it before writing a page; OpenFrom restores it from
// the superblock.
type metaLayout struct {
	quant         storage.Quantizer // the index world's cells
	objStart      storage.PageID    // first object page (pages are contiguous per kind)
	objectPages   int
	metadataPages int
}

// metaStart is the first metadata page: the run after the object pages.
func (l *metaLayout) metaStart() storage.PageID {
	return l.objStart + storage.PageID(l.objectPages)
}

// ref resolves a stored kind-3 ref. A ref outside the index's metadata
// run is an error, so a corrupt ref cannot name another shard's page.
func (l *metaLayout) ref(v uint64) (RecordRef, error) {
	ord := v >> slotBits
	if ord >= uint64(l.metadataPages) {
		return 0, fmt.Errorf("core: corrupt metadata page: ref names metadata page %d of %d", ord, l.metadataPages)
	}
	return makeRef(l.metaStart()+storage.PageID(ord), int(v&(1<<slotBits-1))), nil
}

// metaRecord is the decoded form of one metadata record: the per-page
// summary FLAT stores in the seed tree leaves (Section V-B.2). Its
// neighbor list stays in place on the page; neighbor reads it.
//
// A partition whose neighbor list does not fit one record (possible with
// extremely elongated elements whose partition MBR spans many cells)
// spills the remainder into chained *overflow records*: same layout,
// ObjectPage set to storage.InvalidPage, reachable only through the
// Overflow pointer. The crawl follows the chain when it expands the
// primary record's neighbors (eachNeighbor).
type metaRecord struct {
	PageMBR      geom.MBR // bound of the elements on ObjectPage
	PartitionMBR geom.MBR // stretched partition cell (⊇ PageMBR)
	ObjectPage   storage.PageID
	Overflow     RecordRef // continuation record, noRef if none
	Neighbors    int       // records of all partitions intersecting PartitionMBR

	list []byte // the neighbor entries, on the page
	w    int    // ref width: bareRefWidth on a kind-2 page, 2..4 on kind 3
}

// neighbor returns neighbor i's ref and, on a kind-3 page, the six bytes
// of its box (nil on kind 2, whose pointers carry none).
func (m *metaRecord) neighbor(i int, l *metaLayout) (RecordRef, []byte, error) {
	if m.w == bareRefWidth {
		return RecordRef(binary.LittleEndian.Uint64(m.list[bareRefWidth*i:])), nil, nil
	}
	e := m.list[i*(m.w+boxSize):]
	ref, err := l.ref(uintN(e, m.w))
	return ref, e[m.w : m.w+boxSize], err
}

// uintN reads a w-byte little-endian unsigned integer from b.
func uintN(b []byte, w int) uint64 {
	var v uint64
	for i := w - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// metaPageRecordCount returns the number of records on a metadata page.
// Data pages carry no checksum, so every on-page value the decoders
// below index or allocate by is bounds-checked first: a corrupt page
// must fail the query, not the process.
func metaPageRecordCount(page []byte) (int, error) {
	_, count, err := metaHeader(page)
	return count, err
}

// metaHeader validates a metadata page's header and returns its ref
// width (bareRefWidth for kind 2) and record count.
func metaHeader(page []byte) (w, count int, err error) {
	if len(page) < storage.PageSize {
		return 0, 0, fmt.Errorf("core: metadata page of %d bytes", len(page))
	}
	count = int(binary.LittleEndian.Uint16(page[2:]))
	limit := maxBoxedRecords
	switch kind := page[0]; kind {
	case metaKindBare:
		w, limit = bareRefWidth, maxBareRecords
	case metaKindBoxed:
		w = int(page[1])
		if w < minRefWidth || w > maxRefWidth {
			return 0, 0, fmt.Errorf("core: corrupt metadata page: ref width %d not in [%d,%d]", w, minRefWidth, maxRefWidth)
		}
	default:
		return 0, 0, fmt.Errorf("core: page is not a metadata page (kind %d)", kind)
	}
	if count > limit {
		return 0, 0, fmt.Errorf("core: corrupt metadata page: %d records exceed the %d a page holds", count, limit)
	}
	return w, count, nil
}

// decodeMetaRecord reads the record at slot from a metadata page of
// either kind. It allocates nothing: the neighbor list stays on the page.
func decodeMetaRecord(page []byte, slot int, l *metaLayout) (metaRecord, error) {
	w, count, err := metaHeader(page)
	if err != nil {
		return metaRecord{}, err
	}
	if slot < 0 || slot >= count {
		return metaRecord{}, fmt.Errorf("core: metadata slot %d out of range (%d records)", slot, count)
	}
	header, stride, maxNeighbors := bareHeaderSize, bareRefWidth, maxBareNeighbors
	if w != bareRefWidth {
		header, stride, maxNeighbors = boxedHeaderSize(w), w+boxSize, maxInlineNeighbors(w)
	}
	off := int(binary.LittleEndian.Uint16(page[metaPageOverhead+2*slot:]))
	if off < metaPageOverhead+2*count || off+header > storage.PageSize {
		return metaRecord{}, fmt.Errorf("core: corrupt metadata page: slot %d record offset %d out of range", slot, off)
	}
	r := storage.NewPageReader(page)
	r.Seek(off)
	m := metaRecord{w: w}
	var n int
	if w == bareRefWidth {
		m.PageMBR = r.MBR()
		m.PartitionMBR = r.MBR()
		m.ObjectPage = storage.PageID(r.U64())
		m.Overflow = RecordRef(r.U64())
		n = int(r.U32())
	} else {
		var cells [6]uint32
		for i := range cells {
			cells[i] = r.U32()
		}
		m.PageMBR = l.quant.Box(cells)
		for i := range cells {
			cells[i] = r.U32()
		}
		m.PartitionMBR = l.quant.Box(cells)
		switch obj := r.U32(); {
		case obj == noObject:
			m.ObjectPage = storage.InvalidPage
		case int64(obj) >= int64(l.objectPages):
			return metaRecord{}, fmt.Errorf("core: corrupt metadata page: slot %d names object page %d of %d", slot, obj, l.objectPages)
		default:
			m.ObjectPage = l.objStart + storage.PageID(obj)
		}
		m.Overflow = noRef
		if ov := uintN(page[r.Offset():], w); ov != noRefBits(w) {
			if m.Overflow, err = l.ref(ov); err != nil {
				return metaRecord{}, err
			}
		}
		r.Seek(r.Offset() + w)
		n = int(r.U16())
	}
	start := r.Offset()
	if n > maxNeighbors || start+stride*n > storage.PageSize {
		return metaRecord{}, fmt.Errorf("core: corrupt metadata page: slot %d lists %d neighbors past the page end", slot, n)
	}
	m.Neighbors = n
	m.list = page[start : start+stride*n]
	return m, nil
}

// pendingRecord is one metadata record as Build lays it out, before it
// is encoded: page and partition cells against the world, the object
// ordinal, and per neighbor its stored ref and box.
type pendingRecord struct {
	pageCells, partCells [6]uint32
	objOrd               uint32 // noObject on an overflow continuation
	neighbors            []pendingNeighbor

	// layout bookkeeping
	center geom.Vec3      // exact page-MBR center, the tiling key
	nbIdx  []int          // partition indices behind neighbors
	next   *pendingRecord // overflow chain link
	self   uint64         // stored ref, assigned by packing
}

// pendingNeighbor is one stored neighbor pointer.
type pendingNeighbor struct {
	ref uint64
	box [boxSize]uint8
}

// neighborBox is the stored box of a partition with cells c: the top
// byte of each cell. A top byte decodes to a coordinate no tighter than
// the full cell does (Quantizer decodes monotonically), so the box
// contains the partition's decoded MBR.
func neighborBox(c [6]uint32) [boxSize]uint8 {
	var b [boxSize]uint8
	for i, v := range c {
		b[i] = uint8(v >> 24)
	}
	return b
}

// decodeBox returns the box six stored neighbor-box bytes stand for.
func decodeBox(q *storage.Quantizer, b []byte) geom.MBR {
	var c [6]uint32
	for i := range c {
		c[i] = uint32(b[i]) << 24
	}
	return q.Box(c)
}

// encodedSize returns the record's on-page footprint at ref width w.
func (m *pendingRecord) encodedSize(w int) int {
	return boxedHeaderSize(w) + (w+boxSize)*len(m.neighbors)
}

// encodeMetaPage serializes records into buf as a kind-3 page with
// w-byte refs. Callers must have sized the group so it fits
// (packMetaPages guarantees this).
func encodeMetaPage(buf []byte, records []*pendingRecord, w int) {
	pw := storage.NewPageWriter(buf)
	pw.PutU8(metaKindBoxed)
	pw.PutU8(uint8(w))
	pw.PutU16(uint16(len(records)))
	// Slot directory first; record offsets are known incrementally.
	off := metaPageOverhead + 2*len(records)
	for _, m := range records {
		pw.PutU16(uint16(off))
		off += m.encodedSize(w)
	}
	for _, m := range records {
		for _, c := range m.pageCells {
			pw.PutU32(c)
		}
		for _, c := range m.partCells {
			pw.PutU32(c)
		}
		pw.PutU32(m.objOrd)
		overflow := noRefBits(w)
		if m.next != nil {
			overflow = m.next.self
		}
		pw.PutUintN(overflow, w)
		pw.PutU16(uint16(len(m.neighbors)))
		for _, n := range m.neighbors {
			pw.PutUintN(n.ref, w)
			for _, b := range n.box {
				pw.PutU8(b)
			}
		}
	}
	if pw.Overflow() {
		panic(fmt.Sprintf("core: metadata page overflow with %d records", len(records)))
	}
}

// tileMetaRecords reorders records with a 3D STR pass over their page-MBR
// centers so that records packed onto the same metadata page form a
// spatial tile — the locality property the paper obtains by storing
// records in seed-tree (R-tree) leaves. The tile capacity is derived
// from the average encoded record size.
func tileMetaRecords(records []*pendingRecord, w int) {
	if len(records) < 2 {
		return
	}
	total := 0
	for _, m := range records {
		total += m.encodedSize(w) + 2
	}
	capacity := (storage.PageSize - metaPageOverhead) / (total / len(records))
	if capacity < 1 {
		capacity = 1
	}
	str.Tile(records, func(m *pendingRecord) geom.Vec3 { return m.center }, capacity)
}

// packMetaPages assigns records to metadata pages greedily in order,
// starting a new page whenever the next record (plus its slot entry)
// would overflow, and gives every record its stored ref. It returns the
// page groups as index ranges into the record slice. Records never span
// pages.
func packMetaPages(records []*pendingRecord, w int) ([][2]int, error) {
	var groups [][2]int
	start, used := 0, metaPageOverhead
	for i, m := range records {
		sz := m.encodedSize(w) + 2 // +2 for the slot directory entry
		if m.encodedSize(w) > maxRecordSize {
			return nil, fmt.Errorf("core: metadata record with %d neighbors (%d bytes) exceeds page size",
				len(m.neighbors), m.encodedSize(w))
		}
		if used+sz > storage.PageSize {
			groups = append(groups, [2]int{start, i})
			start, used = i, metaPageOverhead
		}
		used += sz
		m.self = uint64(len(groups))<<slotBits | uint64(i-start)
	}
	if start < len(records) {
		groups = append(groups, [2]int{start, len(records)})
	}
	return groups, nil
}
