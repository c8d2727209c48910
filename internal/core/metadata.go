package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"flat/internal/geom"
	"flat/internal/storage"
	"flat/internal/str"
)

// RecordRef addresses a metadata record on disk: the metadata page id in
// the upper 48 bits and the slot within the page in the lower 16. This is
// the "pointer to the neighbor's metadata record" of Section V-B.2 —
// following it costs at most one (possibly buffered) page read. It is the
// in-memory form; metadata pages store refs narrower (see below).
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

// Metadata pages. A page starts with a 4-byte header whose second byte is
// b, the bits per face of a neighbor box, and a frame: six world cells
// (Quantizer.Cells' order) of the union of every widened partition box
// (widenCells) the page's records and their neighbors name. A slot
// directory gives O(1) access to a record by slot — the crawl's cost of
// following a RecordRef — and has one more entry, the end of the last
// record, so every record's bytes are bounded:
//
//	[4][b u8][count u16] | frame 6×u32 | offset u16 × (count+1) | records
//
//	PageMBR 6×u24 | PartitionMBR 6×u16 | object uvarint | overflow uvarint
//	| neighbor count uvarint | boxes ⌈6bn/8⌉ bytes | n × ref gap uvarint
//
// The MBRs are values against the frame, pageCellBits and partCellBits
// per face (boxFrame: value v of face f stands for the frame's cell plus
// v steps, rounded outward), so each contains the exact box quantized to
// world cells with storage.Quantizer (mins round down, maxes store their
// distance from the world top, rounded down). Pages and records are
// addressed by ordinals: the object field is the object page's ordinal
// from objStart plus one (0: an overflow continuation, which has none),
// and a ref is its record's metadata-page ordinal, counted from
// metaStart = objStart + objectPages, shifted left slotBits and or'd
// with the slot. The overflow field is the zigzag difference of the
// continuation's ref and the record's own (0: none). Refs are sorted:
// the first stored as a zigzag difference from the record's own ref,
// each later one as the gap from the one before (the gap coding of
// WebGraph's adjacency lists, Boldi and Vigna, WWW 2004). Neighbor i's
// box is 6b bits at bit 6bi of the box run, b bits per face against the
// frame, and contains the neighbor's decoded PartitionMBR — so a crawl
// can tell a neighbor's partition misses the query without reading it.
//
// The kind byte is 4. Kinds 2 (the paper's layout: float64 MBRs and bare
// u64 pointers) and 3 (world-quantized MBRs and 6-byte boxes) are older
// layouts: opening a directory rebuilds every shard written with them
// (shard.OpenSet), and parse refuses them. Boxed pointers extend the
// paper, whose pointers are bare.
const (
	metaKindFramed = 4

	// metaPageOverhead is the fixed header size.
	metaPageOverhead = 4

	slotBits = 7
	noObject = math.MaxUint32 // object ordinal of an overflow continuation

	frameSize = 6 * 4
	// framedPageOverhead is a page's fixed bytes: header, frame and the
	// directory's end entry.
	framedPageOverhead = metaPageOverhead + frameSize + 2
	maxFramedRecords   = 1<<slotBits - 1 // every slot fits slotBits
	maxFramedRecord    = storage.PageSize - framedPageOverhead - 2
	// A record's page MBR is stored at pageCellBits bits per face and
	// its partition MBR at partCellBits. The page MBR decides which
	// object pages a query reads, so it keeps the precision at which no
	// query of the benchmarks reads an object page a world-cell MBR
	// would not; the partition MBR only decides which records are
	// expanded.
	pageCellBits    = 24
	partCellBits    = 16
	framedCellsSize = 6 * (pageCellBits + partCellBits) / 8
	_               = uint(pageCellBits-24) + uint(24-pageCellBits) + uint(partCellBits-16) + uint(16-partCellBits) // framedValues' loads
	// metaBoxBits is the b Build writes: a neighbor's box costs 3.75
	// bytes. Of b = 4, 5, 6 and 8 it read the fewest pages at 1.35M
	// elements (README, metadata pages).
	metaBoxBits = 5
	maxBoxBits  = 8
)

// metaLayout is what a metadata record means beyond its page bytes: the
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

// ref resolves a stored ref. A ref outside the index's metadata run is
// an error, so a corrupt ref cannot name another shard's page.
func (l *metaLayout) ref(v uint64) (RecordRef, error) {
	ord := v >> slotBits
	if ord >= uint64(l.metadataPages) {
		return 0, fmt.Errorf("core: corrupt metadata page: ref names metadata page %d of %d", ord, l.metadataPages)
	}
	return makeRef(l.metaStart()+storage.PageID(ord), int(v&(1<<slotBits-1))), nil
}

// stored is r's stored form; r must lie in the metadata run.
func (l *metaLayout) stored(r RecordRef) uint64 {
	ord := uint64(r.Page() - l.metaStart()) // a count of pages, not an id
	return ord<<slotBits | uint64(r.Slot())
}

// boxFrame maps stored box values to world cells: value v of face f (in
// Quantizer.Cells' order: three min cells, then three max distances)
// stands for cell base[f] + v·step[f%3], capped at the largest cell.
// Both kinds of face round toward a smaller cell, which is outward, so a
// box stored at its largest values not above its cells contains them.
type boxFrame struct {
	base [6]uint64
	step [3]uint64
	bits uint // bits per value
}

// newFrame returns the frame of bits-bit values over the box whose
// world cells are base: per axis, steps of the box's extent in cells
// divided by 2^bits, rounded up so that every cell of the box is at
// most 2^bits−1 steps from its base. A box whose min cell lies above
// its max (an inverted frame) is an error.
func newFrame(base [6]uint32, bits uint) (boxFrame, error) {
	fr := boxFrame{bits: bits}
	for a := 0; a < 3; a++ {
		ext := int64(1)<<32 - int64(base[a]) - int64(base[3+a])
		if ext < 0 {
			return fr, fmt.Errorf("core: corrupt metadata page: inverted frame on axis %d", a)
		}
		fr.step[a] = uint64(ext)>>bits + 1
	}
	for f, c := range base {
		fr.base[f] = uint64(c)
	}
	return fr, nil
}

// cell returns the world cell value v of face f stands for.
func (fr *boxFrame) cell(f int, v uint64) uint32 {
	return uint32(min(fr.base[f]+v*fr.step[f%3], math.MaxUint32))
}

// value returns the stored form of face f's cell c: the largest value
// whose cell is not above c. c must not lie below the frame's base.
func (fr *boxFrame) value(f int, c uint32) uint64 {
	return min((uint64(c)-fr.base[f])/fr.step[f%3], 1<<fr.bits-1)
}

// box decodes six stored values.
func (fr *boxFrame) box(q *storage.Quantizer, v [6]uint8) geom.MBR {
	var c [6]uint32
	for f := range c {
		c[f] = fr.cell(f, uint64(v[f]))
	}
	return q.Box(c)
}

// limits returns, per face, how many stored values of a box frame
// (bits ≤ 8) decode to a cell below the query's cell limit lim
// (Quantizer.CellLimits): a box meets the query exactly when each of
// its values is below its limit.
func (fr *boxFrame) limits(lim *[6]uint64) [6]uint16 {
	var out [6]uint16
	top := uint64(1) << fr.bits
	for f, l := range lim {
		switch {
		case l > math.MaxUint32: // every cell, capped ones included
			out[f] = uint16(top)
		case l > fr.base[f]:
			step := fr.step[f%3]
			out[f] = uint16(min((l-fr.base[f]+step-1)/step, top))
		}
	}
	return out
}

// recordFrames are the frames a page's record MBRs count from.
type recordFrames struct{ page, part boxFrame }

func newRecordFrames(base [6]uint32) (recordFrames, error) {
	page, err := newFrame(base, pageCellBits)
	part, _ := newFrame(base, partCellBits) // same extents: cannot fail
	return recordFrames{page, part}, err
}

// cells decodes a record's stored page and partition values. The page
// cells are clipped to the partition's, so that the decoded page MBR
// lies inside the decoded partition MBR as the exact ones do; both still
// contain the exact page MBR.
func (rf *recordFrames) cells(pageV, partV [6]uint64) (page, part [6]uint32) {
	for f := range page {
		part[f] = rf.part.cell(f, partV[f])
		page[f] = max(rf.page.cell(f, pageV[f]), part[f])
	}
	return page, part
}

// values returns the stored values of a record's page and partition
// cells.
func (rf *recordFrames) values(page, part [6]uint32) (pageV, partV [6]uint64) {
	for f := range page {
		pageV[f], partV[f] = rf.page.value(f, page[f]), rf.part.value(f, part[f])
	}
	return pageV, partV
}

// widenCells returns c grown outward by the largest step a record frame
// can have, so that it contains c rounded to any frame that holds it.
// Build derives the neighbor relation and the page frames from widened
// partition cells, neither of which then depends on how records land on
// pages.
func widenCells(c [6]uint32) [6]uint32 {
	const margin = 1 << (32 - min(pageCellBits, partCellBits))
	for f := range c {
		c[f] -= min(c[f], margin)
	}
	return c
}

// metaRecord is the decoded form of one metadata record: the per-page
// summary FLAT stores in the seed tree leaves (Section V-B.2). Its
// neighbor list stays in place on the page; eachInline reads it.
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

	b    uint8     // the page's box bits
	list []byte    // boxes, then ref gaps
	gaps int       // where the ref gaps start in list
	self uint64    // the record's own stored ref
	base [6]uint32 // the page's frame
}

// boxFrame returns the frame m's neighbor boxes count from: its page's
// frame at the page's box bits.
func (m *metaRecord) boxFrame() boxFrame {
	fr, _ := newFrame(m.base, uint(m.b)) // validated with the page
	return fr
}

// nbBox is one neighbor pointer's box as eachNeighbor hands it out: six
// stored values and the frame they count from; fr is nil only on the
// box-less item k-NN seeds its frontier with.
type nbBox struct {
	v  [6]uint8
	fr *boxFrame
}

// eachInline hands visit every neighbor of m's own list in stored
// order, with the box its pointer carries: values counted from fr. With
// lim set (the box limits of m's page, boxFilter.pageLimits) it skips
// every neighbor whose box is not within lim.
func (m *metaRecord) eachInline(l *metaLayout, fr *boxFrame, lim *[6]uint16, visit func(n RecordRef, box nbBox) error) error {
	box := nbBox{fr: fr}
	v, gaps := m.self, m.list[m.gaps:]
	b := uint(m.b)
	mask := uint64(1)<<b - 1
	// The five shifts, masked so that the compiler emits no over-wide
	// check: 5b < 64.
	s1, s2, s3, s4, s5 := b&63, 2*b&63, 3*b&63, 4*b&63, 5*b&63
	for i := 0; i < m.Neighbors; i++ {
		var g uint64
		if len(gaps) > 0 && gaps[0] < 0x80 { // most gaps take one byte
			g, gaps = uint64(gaps[0]), gaps[1:]
		} else {
			var k int
			if g, k = binary.Uvarint(gaps); k <= 0 {
				return fmt.Errorf("core: corrupt metadata page: neighbor %d's ref runs past its record", i)
			}
			gaps = gaps[k:]
		}
		if i == 0 {
			g = uint64(unzigzag(g))
		}
		v += g
		ref, err := l.ref(v)
		if err != nil {
			return err
		}
		// Six b-bit values from bit 6bi: at most 55 bits from the byte
		// holding the first, read in one load where the page has eight
		// bytes from there.
		bit := 6 * b * uint(i)
		var word uint64
		if off := int(bit / 8); off+8 <= cap(m.list) {
			word = binary.LittleEndian.Uint64(m.list[off : off+8])
		} else {
			for j := int((bit + 6*b + 7) / 8); j > off; j-- {
				word = word<<8 | uint64(m.list[j-1])
			}
		}
		word >>= bit & 7
		box.v = [6]uint8{uint8(word & mask), uint8(word >> s1 & mask), uint8(word >> s2 & mask),
			uint8(word >> s3 & mask), uint8(word >> s4 & mask), uint8(word >> s5 & mask)}
		if lim != nil && !box.within(lim) {
			continue
		}
		if err := visit(ref, box); err != nil {
			return err
		}
	}
	return nil
}

// zigzag maps a signed difference to an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// metaPage is a metadata page whose header is validated: what decoding
// any of its records needs. Data pages carry no checksum, so every
// on-page value the decoders below index or allocate by is
// bounds-checked first: a corrupt page must fail the query, not the
// process.
type metaPage struct {
	bytes []byte
	b     uint8 // box bits
	count int
	base  [6]uint32 // the frame
	rf    recordFrames
}

// errMetaKind is parse's error for a page whose kind byte is not 4.
var errMetaKind = fmt.Errorf("core: page is not a kind-%d metadata page", metaKindFramed)

// parse validates page's header. A page of any other kind — an older
// layout a directory open did not upgrade, or not a metadata page at
// all — is an error, so it fails the query rather than answer it.
func (p *metaPage) parse(page []byte) error {
	if len(page) < storage.PageSize {
		return fmt.Errorf("core: metadata page of %d bytes", len(page))
	}
	if page[0] != metaKindFramed {
		return fmt.Errorf("%w (kind %d)", errMetaKind, page[0])
	}
	p.bytes, p.b = page, page[1]
	p.count = int(binary.LittleEndian.Uint16(page[2:]))
	if p.b < 1 || p.b > maxBoxBits {
		return fmt.Errorf("core: corrupt metadata page: %d-bit boxes not in [1,%d]", p.b, maxBoxBits)
	}
	if p.count > maxFramedRecords {
		return fmt.Errorf("core: corrupt metadata page: %d records exceed the %d a page holds", p.count, maxFramedRecords)
	}
	for f := range p.base {
		p.base[f] = binary.LittleEndian.Uint32(page[metaPageOverhead+4*f:])
	}
	var err error
	p.rf, err = newRecordFrames(p.base)
	return err
}

// decodeMetaRecord reads record ref from its metadata page into m.
func decodeMetaRecord(page []byte, ref RecordRef, l *metaLayout, m *metaRecord) error {
	var p metaPage
	if err := p.parse(page); err != nil {
		return err
	}
	return p.record(ref, l, m)
}

// object resolves a stored object field: 0 marks an overflow
// continuation, and v − 1 counts from objStart.
func (l *metaLayout) object(v uint64) (storage.PageID, error) {
	switch {
	case v == 0:
		return storage.InvalidPage, nil
	case v-1 >= uint64(l.objectPages):
		return 0, fmt.Errorf("core: corrupt metadata page: record names object page %d of %d", v-1, l.objectPages)
	}
	return l.objStart + storage.PageID(v-1), nil
}

// framedValues reads a record's stored page and partition values.
func framedValues(rec []byte) (pageV, partV [6]uint64) {
	_ = rec[framedCellsSize-1]
	for f := range pageV {
		e := rec[3*f:] // 24-bit page values, then 16-bit partition values
		pageV[f] = uint64(e[0]) | uint64(e[1])<<8 | uint64(e[2])<<16
		partV[f] = uint64(binary.LittleEndian.Uint16(rec[18+2*f:]))
	}
	return pageV, partV
}

// pageMeets reports whether record slot's page MBR can intersect the
// query whose world cell limits (Quantizer.CellLimits) are lim: exactly
// whether the decoded page MBR does, read off the stored values without
// decoding them — its cells are below lim. At a slot whose offset is
// corrupt it is true, and decoding the record decides.
func (p *metaPage) pageMeets(slot int, lim *[6]uint64) bool {
	if slot >= p.count {
		return true
	}
	off := int(binary.LittleEndian.Uint16(p.bytes[framedPageOverhead-2+2*slot:]))
	if off < framedPageOverhead+2*p.count || off+framedCellsSize > storage.PageSize {
		return true
	}
	page, _ := p.rf.cells(framedValues(p.bytes[off:]))
	return uint64(page[0]) < lim[0] && uint64(page[1]) < lim[1] && uint64(page[2]) < lim[2] &&
		uint64(page[3]) < lim[3] && uint64(page[4]) < lim[4] && uint64(page[5]) < lim[5]
}

// record reads record ref of the page into m. It allocates nothing: the
// neighbor list stays on the page.
func (p *metaPage) record(ref RecordRef, l *metaLayout, m *metaRecord) error {
	slot := ref.Slot()
	if slot >= p.count {
		return fmt.Errorf("core: metadata slot %d out of range (%d records)", slot, p.count)
	}
	dir := framedPageOverhead - 2 + 2*slot
	off := int(binary.LittleEndian.Uint16(p.bytes[dir:]))
	end := int(binary.LittleEndian.Uint16(p.bytes[dir+2:]))
	if off < framedPageOverhead+2*p.count || off+framedCellsSize > end || end > storage.PageSize {
		return fmt.Errorf("core: corrupt metadata page: slot %d record [%d,%d) out of range", slot, off, end)
	}
	rec := p.bytes[off:end]
	pageCells, partCells := p.rf.cells(framedValues(rec))
	m.PageMBR, m.PartitionMBR = l.quant.Box(pageCells), l.quant.Box(partCells)
	m.b, m.base, m.self = p.b, p.base, l.stored(ref)
	rest := rec[framedCellsSize:]
	var fields [3]uint64 // object, overflow, neighbor count
	for i := range fields {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("core: corrupt metadata page: slot %d header runs past its record", slot)
		}
		fields[i], rest = v, rest[k:]
	}
	var err error
	if m.ObjectPage, err = l.object(fields[0]); err != nil {
		return err
	}
	m.Overflow = noRef
	if fields[1] != 0 {
		if m.Overflow, err = l.ref(m.self + uint64(unzigzag(fields[1]))); err != nil {
			return err
		}
	}
	// Every neighbor costs at least one gap byte beside its box bits.
	n := fields[2]
	boxBytes := (6*uint64(p.b)*n + 7) / 8
	if n > uint64(len(rest)) || boxBytes+n > uint64(len(rest)) {
		return fmt.Errorf("core: corrupt metadata page: slot %d lists %d neighbors past its record", slot, n)
	}
	m.Neighbors, m.list, m.gaps = int(n), rest, int(boxBytes)
	return nil
}

// pendingRecord is one metadata record as Build lays it out, before it
// is encoded: page and partition cells against the world, the object
// ordinal, and its neighbors.
type pendingRecord struct {
	pageCells, partCells [6]uint32 // world cells; zero on an overflow continuation
	objOrd               uint32    // noObject on an overflow continuation
	nbs                  []*pendingRecord

	// layout bookkeeping
	center geom.Vec3      // exact page-MBR center, the tiling key
	next   *pendingRecord // overflow chain link
	self   uint64         // stored ref, assigned by packing
	size   int            // encoded size at the refs of the last packing
	// decoded partition cells against its page's frame, which every box
	// of a pointer to it contains
	decodedPart [6]uint32
}

// sortNeighbors puts m's neighbors in stored-ref order.
func (m *pendingRecord) sortNeighbors() {
	slices.SortFunc(m.nbs, func(a, b *pendingRecord) int { return cmp.Compare(a.self, b.self) })
}

// fields returns m's three uvarint header fields: object, overflow and
// neighbor count.
func (m *pendingRecord) fields() [3]uint64 {
	f := [3]uint64{0, 0, uint64(len(m.nbs))}
	if m.objOrd != noObject {
		f[0] = uint64(m.objOrd) + 1
	}
	if m.next != nil {
		f[1] = zigzag(int64(m.next.self - m.self))
	}
	return f
}

// gap returns the stored form of neighbor i's ref, after prev.
func (m *pendingRecord) gap(i int, prev uint64) uint64 {
	if i == 0 {
		return zigzag(int64(m.nbs[0].self - m.self))
	}
	return m.nbs[i].self - prev
}

// encodedSize returns m's encoded footprint at b-bit boxes and the refs
// packing last assigned; m's neighbors must be sorted.
func (m *pendingRecord) encodedSize(b int) int {
	size := framedCellsSize + (6*b*len(m.nbs)+7)/8
	for _, v := range m.fields() {
		size += uvarintLen(v)
	}
	prev := m.self
	for i, nb := range m.nbs {
		size += uvarintLen(m.gap(i, prev))
		prev = nb.self
	}
	return size
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// encodeMetaPage serializes records into buf as a metadata page with b-bit
// boxes, against the frame whose world cells are base. Callers must have
// packed the group so it fits (packMetaPages) and sorted every record's
// neighbors at their final refs.
func encodeMetaPage(buf []byte, records []*pendingRecord, base [6]uint32, b int) {
	rf, err := newRecordFrames(base)
	if err != nil {
		panic(err)
	}
	bf, _ := newFrame(base, uint(b))
	out := append(buf[:0], metaKindFramed, uint8(b))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(records)))
	for _, c := range base {
		out = binary.LittleEndian.AppendUint32(out, c)
	}
	// Slot directory first, then its end entry; offsets are known from
	// the sizes packing computed.
	off := framedPageOverhead + 2*len(records)
	for _, m := range records {
		out = binary.LittleEndian.AppendUint16(out, uint16(off))
		off += m.size
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(off))
	for _, m := range records {
		var pageV, partV [6]uint64 // zero on an overflow continuation
		if m.objOrd != noObject {
			pageV, partV = rf.values(m.pageCells, m.partCells)
		}
		for _, v := range pageV {
			out = appendUintN(out, v, pageCellBits/8)
		}
		for _, v := range partV {
			out = appendUintN(out, v, partCellBits/8)
		}
		for _, v := range m.fields() {
			out = binary.AppendUvarint(out, v)
		}
		var word uint64 // pending box bits, low first
		n := uint(0)
		for _, nb := range m.nbs {
			for f, c := range nb.decodedPart {
				word |= bf.value(f, c) << n
				n += uint(b)
			}
			for ; n >= 8; n -= 8 {
				out = append(out, byte(word))
				word >>= 8
			}
		}
		if n > 0 {
			out = append(out, byte(word))
		}
		prev := m.self
		for i, nb := range m.nbs {
			out = binary.AppendUvarint(out, m.gap(i, prev))
			prev = nb.self
		}
	}
	if len(out) != off || off > storage.PageSize {
		panic(fmt.Sprintf("core: metadata page of %d records encodes to %d bytes, sized %d", len(records), len(out), off))
	}
	clear(buf[off:storage.PageSize])
}

// appendUintN appends v's w low bytes, little-endian.
func appendUintN(out []byte, v uint64, w int) []byte {
	for range w {
		out = append(out, byte(v))
		v >>= 8
	}
	return out
}

// frameBase returns the world cells of the frame of a page holding
// records: the union of the widened partition cells of every primary
// among them and of every neighbor they name.
func frameBase(records []*pendingRecord) [6]uint32 {
	var base [6]uint32
	for f := range base {
		base[f] = math.MaxUint32
	}
	add := func(m *pendingRecord) {
		for f, c := range widenCells(m.partCells) {
			base[f] = min(base[f], c)
		}
	}
	for _, m := range records {
		if m.objOrd != noObject {
			add(m)
		}
		for _, nb := range m.nbs {
			add(nb)
		}
	}
	return base
}

// tileMetaRecords reorders records with a 3D STR pass over their page-MBR
// centers so that records packed onto the same metadata page form a
// spatial tile — the locality property the paper obtains by storing
// records in seed-tree (R-tree) leaves. The tile capacity is derived
// from the average encoded record size.
func tileMetaRecords(records []*pendingRecord, b int) {
	if len(records) < 2 {
		return
	}
	total := 0
	for _, m := range records {
		total += m.encodedSize(b) + 2
	}
	capacity := (storage.PageSize - framedPageOverhead) / (total / len(records))
	str.Tile(records, func(m *pendingRecord) geom.Vec3 { return m.center }, max(capacity, 1))
}

// packMetaPages assigns records to metadata pages with b-bit boxes and
// gives every record its stored ref. It returns the page groups as index
// ranges into the record slice; records never span pages.
//
// A record's size depends on its neighbors' refs, which depend on the
// packing, so packing repeats: each pass packs greedily in order at the
// sizes the previous pass's refs give, starting a new page whenever the
// next record (plus its slot entry) would pass the page less reserve
// bytes, then assigns refs. It stops once every page fits at its own
// refs; each failing pass doubles the reserve. A page of one record
// always fits (layoutRecords caps every list), so it terminates.
func packMetaPages(records []*pendingRecord, b int) [][2]int {
	for reserve := 0; ; reserve = 2*reserve + 16 {
		for _, m := range records {
			m.size = m.encodedSize(b)
		}
		var groups [][2]int
		start, used := 0, framedPageOverhead
		for i, m := range records {
			if i > start && (used+m.size+2 > storage.PageSize-reserve || i-start == maxFramedRecords) {
				groups = append(groups, [2]int{start, i})
				start, used = i, framedPageOverhead
			}
			used += m.size + 2
			m.self = uint64(len(groups))<<slotBits | uint64(i-start)
		}
		groups = append(groups, [2]int{start, len(records)})
		fits := true
		for _, span := range groups {
			used := framedPageOverhead
			for _, m := range records[span[0]:span[1]] {
				m.sortNeighbors()
				m.size = m.encodedSize(b)
				used += m.size + 2
			}
			fits = fits && used <= storage.PageSize
		}
		if fits {
			return groups
		}
	}
}
