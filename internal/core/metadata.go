package core

import (
	"fmt"

	"flat/internal/geom"
	"flat/internal/storage"
	"flat/internal/str"
)

// RecordRef addresses a metadata record on disk: the metadata page id in
// the upper 48 bits and the slot within the page in the lower 16. This is
// the "pointer to the neighbor's metadata record" of Section V-B.2 —
// following it costs at most one (possibly buffered) page read.
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

// metaRecord is the decoded form of one metadata record: the per-page
// summary FLAT stores in the seed tree leaves (Section V-B.2).
//
// A partition whose neighbor list does not fit one record (possible with
// extremely elongated elements whose partition MBR spans many cells)
// spills the remainder into chained *overflow records*: same layout,
// ObjectPage set to storage.InvalidPage, reachable only through the
// Overflow pointer. The crawl follows the chain when it expands the
// primary record's neighbors.
type metaRecord struct {
	PageMBR      geom.MBR // tight bound of the elements on ObjectPage
	PartitionMBR geom.MBR // stretched partition cell (⊇ PageMBR)
	ObjectPage   storage.PageID
	Overflow     RecordRef   // continuation record, noRef if none
	Neighbors    []RecordRef // records of all partitions intersecting PartitionMBR

	// build-time bookkeeping (not serialized):
	nbIdx   []int       // partition indices behind Neighbors
	next    *metaRecord // overflow chain link
	selfRef RecordRef   // assigned during page packing
	partIdx int         // owning partition index (primaries only)
}

// recordHeaderSize is the fixed part of a record: two MBRs, the object
// page pointer, the overflow pointer and the neighbor count.
const recordHeaderSize = 2*storage.MBRSize + 8 + 8 + 4

// encodedSize returns the record's on-page footprint.
func (m *metaRecord) encodedSize() int {
	return recordHeaderSize + 8*len(m.Neighbors)
}

// Metadata page layout:
//
//	[kind u8 = 2][pad u8][count u16]          4-byte header
//	[offset u16 x count]                      slot directory
//	[record x count]                          variable-size records
//
// The slot directory gives O(1) access to a record by slot, which the
// crawl phase uses when following a RecordRef.
const metaPageKind = 2

// metaPageOverhead is the fixed header size; each record additionally
// costs 2 bytes of slot directory.
const metaPageOverhead = 4

// maxRecordSize is the largest record that fits an otherwise empty page.
const maxRecordSize = storage.PageSize - metaPageOverhead - 2

// maxInlineNeighbors is the largest neighbor list stored in one record;
// longer lists continue in overflow records.
const maxInlineNeighbors = (maxRecordSize - recordHeaderSize) / 8

// encodeMetaPage serializes records into buf. Callers must have sized the
// group so it fits (packMetaPages guarantees this).
func encodeMetaPage(buf []byte, records []*metaRecord) {
	w := storage.NewPageWriter(buf)
	w.PutU8(metaPageKind)
	w.PutU8(0)
	w.PutU16(uint16(len(records)))
	// Slot directory first; record offsets are known incrementally.
	off := metaPageOverhead + 2*len(records)
	for _, m := range records {
		w.PutU16(uint16(off))
		off += m.encodedSize()
	}
	for _, m := range records {
		w.PutMBR(m.PageMBR)
		w.PutMBR(m.PartitionMBR)
		w.PutU64(uint64(m.ObjectPage))
		w.PutU64(uint64(m.Overflow))
		w.PutU32(uint32(len(m.Neighbors)))
		for _, n := range m.Neighbors {
			w.PutU64(uint64(n))
		}
	}
	if w.Overflow() {
		panic(fmt.Sprintf("core: metadata page overflow with %d records", len(records)))
	}
}

// maxMetaRecords is the most records one metadata page can hold: every
// record costs its slot-directory entry plus at least an empty record.
const maxMetaRecords = (storage.PageSize - metaPageOverhead) / (2 + recordHeaderSize)

// metaPageRecordCount returns the number of records on a metadata page.
// Data pages carry no checksum, so every on-page value the decoders
// below index or allocate by is bounds-checked first: a corrupt page
// must fail the query, not the process.
func metaPageRecordCount(page []byte) (int, error) {
	return readMetaHeader(storage.NewPageReader(page))
}

// readMetaHeader consumes the page header from r and returns the
// validated record count.
func readMetaHeader(r *storage.PageReader) (int, error) {
	if kind := r.U8(); kind != metaPageKind {
		return 0, fmt.Errorf("core: page is not a metadata page (kind %d)", kind)
	}
	r.U8()
	count := int(r.U16())
	if count > maxMetaRecords {
		return 0, fmt.Errorf("core: corrupt metadata page: %d records exceed the %d a page holds", count, maxMetaRecords)
	}
	return count, nil
}

// decodeMetaRecord reads the record at slot from a metadata page.
func decodeMetaRecord(page []byte, slot int) (metaRecord, error) {
	r := storage.NewPageReader(page)
	count, err := readMetaHeader(r)
	if err != nil {
		return metaRecord{}, err
	}
	if slot < 0 || slot >= count {
		return metaRecord{}, fmt.Errorf("core: metadata slot %d out of range (%d records)", slot, count)
	}
	r.Seek(metaPageOverhead + 2*slot)
	off := int(r.U16())
	if off < metaPageOverhead+2*count || off+recordHeaderSize > storage.PageSize {
		return metaRecord{}, fmt.Errorf("core: corrupt metadata page: slot %d record offset %d out of range", slot, off)
	}
	r.Seek(off)
	var m metaRecord
	m.PageMBR = r.MBR()
	m.PartitionMBR = r.MBR()
	m.ObjectPage = storage.PageID(r.U64())
	m.Overflow = RecordRef(r.U64())
	n := r.U32()
	if n > maxInlineNeighbors || r.Offset()+8*int(n) > storage.PageSize {
		return metaRecord{}, fmt.Errorf("core: corrupt metadata page: slot %d lists %d neighbors past the page end", slot, n)
	}
	m.Neighbors = make([]RecordRef, n)
	for i := range m.Neighbors {
		m.Neighbors[i] = RecordRef(r.U64())
	}
	return m, nil
}

// tileMetaRecords reorders records with a 3D STR pass over their page-MBR
// centers so that records packed onto the same metadata page form a
// spatial tile — the locality property the paper obtains by storing
// records in seed-tree (R-tree) leaves. The tile capacity is derived
// from the average encoded record size.
func tileMetaRecords(records []*metaRecord) {
	if len(records) < 2 {
		return
	}
	total := 0
	for _, m := range records {
		total += m.encodedSize() + 2
	}
	capacity := (storage.PageSize - metaPageOverhead) / (total / len(records))
	if capacity < 1 {
		capacity = 1
	}
	str.Tile(records, func(m *metaRecord) geom.Vec3 { return m.PageMBR.Center() }, capacity)
}

// packMetaPages assigns records to metadata pages greedily in order,
// starting a new page whenever the next record (plus its slot entry)
// would overflow. It returns the page groups as index ranges into the
// record slice. Records never span pages.
func packMetaPages(records []*metaRecord) ([][2]int, error) {
	var groups [][2]int
	start, used := 0, metaPageOverhead
	for i, m := range records {
		sz := m.encodedSize() + 2 // +2 for the slot directory entry
		if m.encodedSize() > maxRecordSize {
			return nil, fmt.Errorf("core: metadata record with %d neighbors (%d bytes) exceeds page size",
				len(m.Neighbors), m.encodedSize())
		}
		if used+sz > storage.PageSize {
			groups = append(groups, [2]int{start, i})
			start, used = i, metaPageOverhead
		}
		used += sz
	}
	if start < len(records) {
		groups = append(groups, [2]int{start, len(records)})
	}
	return groups, nil
}
