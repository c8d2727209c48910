package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// decodeRecord is decodeMetaRecord returning the record.
func decodeRecord(page []byte, ref RecordRef, l *metaLayout) (metaRecord, error) {
	var m metaRecord
	err := decodeMetaRecord(page, ref, l, &m)
	return m, err
}

// frameOf is the frame eachNeighbor hands m's boxes with.
func frameOf(m *metaRecord) *boxFrame {
	if m.kind == metaKindBare {
		return nil
	}
	fr := m.boxFrame()
	return &fr
}

// metaPageRecordCount returns the record count of a valid page header.
func metaPageRecordCount(page []byte) (int, error) {
	var p metaPage
	err := p.parse(page)
	return p.count, err
}

func TestRecordRefPacking(t *testing.T) {
	ref := makeRef(123456, 42)
	if ref.Page() != 123456 {
		t.Errorf("Page = %d", ref.Page())
	}
	if ref.Slot() != 42 {
		t.Errorf("Slot = %d", ref.Slot())
	}
	if ref.String() != "meta(123456:42)" {
		t.Errorf("String = %q", ref.String())
	}
}

// testLayout is the layout the codec tests decode against: a world of
// worldBox(), 5000 object pages from page 100 and 600 metadata pages
// after them (w = 3 addresses them all; w = 2 only 512).
func testLayout() *metaLayout {
	return &metaLayout{quant: storage.NewQuantizer(worldBox()), objStart: 100, objectPages: 5000, metadataPages: 600}
}

func randomCells(r *rand.Rand, l *metaLayout) (page, part [6]uint32) {
	box := geom.CubeAt(geom.V(10+r.Float64()*80, 10+r.Float64()*80, 10+r.Float64()*80), 1+r.Float64())
	return l.quant.Cells(box), l.quant.Cells(box.Expand(r.Float64()))
}

// boxedRecord is a kind-3 record: the layout indexes written before
// kind 4 existed carry, and that Build no longer writes.
type boxedRecord struct {
	pageCells, partCells [6]uint32
	objOrd               uint32 // noObject on an overflow continuation
	overflow             uint64 // stored ref, noRefBits(w) for none
	refs                 []uint64
	boxes                [][boxSize]uint8
}

// encodeBoxedPage writes records as a kind-3 page with w-byte refs, byte
// for byte what the encoder wrote before kind 4.
func encodeBoxedPage(buf []byte, records []boxedRecord, w int) {
	pw := storage.NewPageWriter(buf)
	pw.PutU8(metaKindBoxed)
	pw.PutU8(uint8(w))
	pw.PutU16(uint16(len(records)))
	off := metaPageOverhead + 2*len(records)
	for _, m := range records {
		pw.PutU16(uint16(off))
		off += boxedHeaderSize(w) + (w+boxSize)*len(m.refs)
	}
	for _, m := range records {
		for _, c := range m.pageCells {
			pw.PutU32(c)
		}
		for _, c := range m.partCells {
			pw.PutU32(c)
		}
		pw.PutU32(m.objOrd)
		pw.PutUintN(m.overflow, w)
		pw.PutU16(uint16(len(m.refs)))
		for i, ref := range m.refs {
			pw.PutUintN(ref, w)
			for _, b := range m.boxes[i] {
				pw.PutU8(b)
			}
		}
	}
	if pw.Overflow() {
		panic("kind-3 test page overflow")
	}
}

// randomBoxedRecord returns a kind-3 record valid under testLayout with
// w-byte refs.
func randomBoxedRecord(r *rand.Rand, neighbors, w int) boxedRecord {
	l := testLayout()
	m := boxedRecord{objOrd: uint32(r.Intn(l.objectPages)), overflow: noRefBits(w)}
	m.pageCells, m.partCells = randomCells(r, l)
	pages := min(l.metadataPages, 1<<(8*w-slotBits))
	for range neighbors {
		_, cells := randomCells(r, l)
		var box [boxSize]uint8
		for f, c := range cells {
			box[f] = uint8(worldFrame.value(f, c))
		}
		m.refs = append(m.refs, uint64(r.Intn(pages))<<slotBits|uint64(r.Intn(maxBoxedRecords)))
		m.boxes = append(m.boxes, box)
	}
	return m
}

// randomFramedPage returns records for kind-4 page ord under
// testLayout: random cells, and neighbors drawn from a pool of records
// on other pages whose decoded partition cells are their world cells.
func randomFramedPage(r *rand.Rand, ord int, neighbors ...int) []*pendingRecord {
	l := testLayout()
	pool := make([]*pendingRecord, 60)
	for i := range pool {
		nb := &pendingRecord{self: uint64(r.Intn(l.metadataPages))<<slotBits | uint64(r.Intn(maxFramedRecords))}
		_, nb.partCells = randomCells(r, l)
		nb.decodedPart = nb.partCells
		pool[i] = nb
	}
	records := make([]*pendingRecord, len(neighbors))
	for slot, n := range neighbors {
		m := &pendingRecord{objOrd: uint32(r.Intn(l.objectPages)), self: uint64(ord)<<slotBits | uint64(slot)}
		m.pageCells, m.partCells = randomCells(r, l)
		for _, k := range r.Perm(len(pool))[:n] {
			m.nbs = append(m.nbs, pool[k])
		}
		records[slot] = m
	}
	return records
}

// sizeRecords readies records for encodeMetaPage at b-bit boxes, as
// packMetaPages leaves them.
func sizeRecords(records []*pendingRecord, b int) {
	for _, m := range records {
		m.sortNeighbors()
		m.size = m.encodedSize(b)
	}
}

func TestMetaPageCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	l := testLayout()
	const ord = 37
	for b := 1; b <= maxBoxBits; b++ {
		records := randomFramedPage(r, ord, 0, 5, 30, 1)
		records[1].next = records[3] // an overflow pointer
		records[3].objOrd = noObject
		records[2].next = &pendingRecord{self: (ord+200)<<slotBits | 9} // one on a later page
		sizeRecords(records, b)
		base := frameBase(records)
		buf := make([]byte, storage.PageSize)
		encodeMetaPage(buf, records, base, b)
		if got, err := metaPageRecordCount(buf); err != nil || got != 4 {
			t.Fatalf("b=%d: record count = %d, %v", b, got, err)
		}
		rf, _ := newRecordFrames(base)
		boxFrame, _ := newFrame(base, uint(b))
		for slot, want := range records {
			ref := makeRef(l.metaStart()+ord, slot)
			got, err := decodeRecord(buf, ref, l)
			if err != nil {
				t.Fatal(err)
			}
			wantObj, wantOverflow := l.objStart+storage.PageID(want.objOrd), noRef
			if want.objOrd == noObject {
				wantObj = storage.InvalidPage
			} else if pageCells, partCells := rf.cells(rf.values(want.pageCells, want.partCells)); got.PageMBR != l.quant.Box(pageCells) || got.PartitionMBR != l.quant.Box(partCells) {
				t.Fatalf("b=%d slot %d MBRs %v %v", b, slot, got.PageMBR, got.PartitionMBR)
			}
			if want.next != nil {
				wantOverflow, _ = l.ref(want.next.self)
			}
			if got.ObjectPage != wantObj || got.Overflow != wantOverflow || got.Neighbors != len(want.nbs) {
				t.Fatalf("b=%d slot %d header mismatch: %+v", b, slot, got)
			}
			if want.objOrd != noObject && !got.PartitionMBR.Contains(l.quant.Box(want.partCells)) {
				t.Fatalf("b=%d slot %d: partition %v does not contain %v", b, slot, got.PartitionMBR, l.quant.Box(want.partCells))
			}
			i := 0
			err = got.eachInline(l, frameOf(&got), nil, func(n RecordRef, box nbBox) error {
				nb := want.nbs[i]
				wantRef, _ := l.ref(nb.self)
				decoded := box.fr.box(&l.quant, box.v)
				if n != wantRef || box.fr.bits != uint(b) || !decoded.Contains(l.quant.Box(nb.decodedPart)) {
					t.Fatalf("b=%d slot %d neighbor %d = (%v, %v), want %v around %v", b, slot, i, n, decoded, wantRef, l.quant.Box(nb.decodedPart))
				}
				for f, c := range nb.decodedPart {
					if uint64(box.v[f]) != boxFrame.value(f, c) {
						t.Fatalf("b=%d slot %d neighbor %d face %d = %d, want %d", b, slot, i, f, box.v[f], boxFrame.value(f, c))
					}
				}
				i++
				return nil
			})
			if err != nil || i != len(want.nbs) {
				t.Fatalf("b=%d slot %d: %d neighbors walked, %v", b, slot, i, err)
			}
		}
	}

	// Kind 3 still decodes, at every ref width.
	for w := minRefWidth; w <= maxRefWidth; w++ {
		records := []boxedRecord{randomBoxedRecord(r, 0, w), randomBoxedRecord(r, 5, w), randomBoxedRecord(r, 30, w)}
		records[1].overflow = 7<<slotBits | 3
		buf := make([]byte, storage.PageSize)
		encodeBoxedPage(buf, records, w)
		for slot, want := range records {
			ref := makeRef(l.metaStart(), slot)
			got, err := decodeRecord(buf, ref, l)
			if err != nil {
				t.Fatal(err)
			}
			wantOverflow := noRef
			if want.overflow != noRefBits(w) {
				wantOverflow = makeRef(l.metaStart()+7, 3)
			}
			if got.PageMBR != l.quant.Box(want.pageCells) || got.PartitionMBR != l.quant.Box(want.partCells) ||
				got.ObjectPage != l.objStart+storage.PageID(want.objOrd) || got.Overflow != wantOverflow || got.Neighbors != len(want.refs) {
				t.Fatalf("w=%d slot %d header mismatch: %+v", w, slot, got)
			}
			i := 0
			err = got.eachInline(l, frameOf(&got), nil, func(n RecordRef, box nbBox) error {
				wantRef, _ := l.ref(want.refs[i])
				if n != wantRef || box.v != want.boxes[i] || *box.fr != worldFrame {
					t.Fatalf("w=%d slot %d neighbor %d = (%v, %v), want (%v, %v)", w, slot, i, n, box.v, wantRef, want.boxes[i])
				}
				i++
				return nil
			})
			if err != nil || i != len(want.refs) {
				t.Fatalf("w=%d slot %d: %d neighbors walked, %v", w, slot, i, err)
			}
		}
	}
}

// bareRecord is a kind-2 record: the layout indexes written before kind
// 3 existed carry, and that Build no longer writes.
type bareRecord struct {
	pageMBR, partMBR geom.MBR
	object           storage.PageID
	overflow         RecordRef
	neighbors        []RecordRef
}

// encodeBarePage writes records as a kind-2 page, byte for byte what the
// encoder wrote before kind 3.
func encodeBarePage(buf []byte, records []bareRecord) {
	w := storage.NewPageWriter(buf)
	w.PutU8(metaKindBare)
	w.PutU8(0)
	w.PutU16(uint16(len(records)))
	off := metaPageOverhead + 2*len(records)
	for _, m := range records {
		w.PutU16(uint16(off))
		off += bareHeaderSize + 8*len(m.neighbors)
	}
	for _, m := range records {
		w.PutMBR(m.pageMBR)
		w.PutMBR(m.partMBR)
		w.PutU64(uint64(m.object))
		w.PutU64(uint64(m.overflow))
		w.PutU32(uint32(len(m.neighbors)))
		for _, n := range m.neighbors {
			w.PutU64(uint64(n))
		}
	}
}

func randomBareRecord(r *rand.Rand, neighbors int) bareRecord {
	page := geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), 1+r.Float64())
	m := bareRecord{pageMBR: page, partMBR: page.Expand(r.Float64()), object: storage.PageID(r.Uint64() >> 16), overflow: noRef}
	for range neighbors {
		m.neighbors = append(m.neighbors, makeRef(storage.PageID(r.Uint32()), r.Intn(100)))
	}
	return m
}

func TestBareMetaPageDecodes(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	records := []bareRecord{randomBareRecord(r, 0), randomBareRecord(r, 5), randomBareRecord(r, 30)}
	buf := make([]byte, storage.PageSize)
	encodeBarePage(buf, records)
	for slot, want := range records {
		got, err := decodeRecord(buf, makeRef(0, slot), testLayout())
		if err != nil {
			t.Fatal(err)
		}
		if got.PageMBR != want.pageMBR || got.PartitionMBR != want.partMBR || got.ObjectPage != want.object ||
			got.Overflow != want.overflow || got.Neighbors != len(want.neighbors) {
			t.Fatalf("slot %d header mismatch: %+v", slot, got)
		}
		var refs []RecordRef
		err = got.eachInline(testLayout(), nil, nil, func(n RecordRef, box nbBox) error {
			refs = append(refs, n)
			return nil
		})
		if err != nil || !slices.Equal(refs, want.neighbors) {
			t.Fatalf("slot %d neighbors = %v, %v; want %v", slot, refs, err, want.neighbors)
		}
	}
}

// decodeAll decodes slot of the first metadata page and walks its
// neighbor list: what a crawl does with a record, so an error either
// step reports is the decoder's.
func decodeAll(page []byte, slot int, l *metaLayout) (metaRecord, error) {
	ref := makeRef(l.metaStart(), slot)
	m, err := decodeRecord(page, ref, l)
	if err == nil {
		err = m.eachInline(l, frameOf(&m), nil, func(RecordRef, nbBox) error { return nil })
	}
	return m, err
}

func TestDecodeMetaRecordErrors(t *testing.T) {
	l := testLayout()
	buf := make([]byte, storage.PageSize)
	encodeBarePage(buf, []bareRecord{randomBareRecord(rand.New(rand.NewSource(1)), 2)})
	if _, err := decodeAll(buf, 1, l); err == nil {
		t.Error("out-of-range slot accepted")
	}
	var notMeta [storage.PageSize]byte
	notMeta[0] = 1 // rtree leaf kind
	if _, err := decodeAll(notMeta[:], 0, l); err == nil {
		t.Error("wrong page kind accepted")
	}

	// Data pages carry no checksum: each on-page value the decoder
	// indexes or allocates by, corrupted, must be an error — these used
	// to be a slice-bounds panic, an out-of-memory abort, and a read past
	// the slot directory.
	rnd := rand.New(rand.NewSource(2))
	two := make([]byte, storage.PageSize)
	encodeBarePage(two, []bareRecord{randomBareRecord(rnd, 2), randomBareRecord(rnd, 2)})
	corrupt := func(page []byte, off int, b ...byte) []byte {
		page = append([]byte(nil), page...)
		copy(page[off:], b)
		return page
	}
	slot1 := metaPageOverhead + 2 // slot 1's directory entry
	nOff := metaPageOverhead + 2*2 + bareHeaderSize + 8*2 + bareHeaderSize - 4
	cases := map[string][]byte{
		"kind 2: record offset past the page":    corrupt(two, slot1, 0xf0, 0xff),
		"kind 2: record offset inside the slots": corrupt(two, slot1, 2, 0),
		"kind 2: neighbor count 0x7fffffff":      corrupt(two, nOff, 0xff, 0xff, 0xff, 0x7f),
		"kind 2: neighbor list past the page":    corrupt(two, nOff, byte(maxBareNeighbors&0xff), byte(maxBareNeighbors>>8), 0, 0),
		"kind 2: record count past the page":     corrupt(two, 2, 0xff, 0xff),
	}
	if m, err := decodeAll(two, 1, l); err != nil || m.Neighbors != 2 {
		t.Errorf("uncorrupted kind-2 page: %d neighbors, %v", m.Neighbors, err)
	}

	// Kind 3: the header, the ordinals and the list are bounded by the
	// page and by the shard's own page runs, so a corrupt ref cannot name
	// a page outside this shard's metadata run.
	const w = 3
	boxed := make([]byte, storage.PageSize)
	encodeBoxedPage(boxed, []boxedRecord{randomBoxedRecord(rnd, 2, w), randomBoxedRecord(rnd, 2, w)}, w)
	rec1 := metaPageOverhead + 2*2 + boxedHeaderSize(w) + 2*(w+boxSize) // slot 1's record
	objOff, ovOff, cntOff := rec1+2*6*4, rec1+2*6*4+4, rec1+2*6*4+4+w
	nb0 := cntOff + 2
	past := uint64(l.metadataPages) << slotBits // the first ref past the run
	objPast := uint32(l.objectPages)
	for name, page := range map[string][]byte{
		"kind 3: ref width 0":                 corrupt(boxed, 1, 0),
		"kind 3: ref width 1":                 corrupt(boxed, 1, 1),
		"kind 3: ref width 5":                 corrupt(boxed, 1, 5),
		"kind 3: ref width 255":               corrupt(boxed, 1, 255),
		"kind 3: record count past the page":  corrupt(boxed, 2, maxBoxedRecords+1, 0),
		"kind 3: record offset past the page": corrupt(boxed, slot1, 0xf0, 0xff),
		"kind 3: object ordinal past the run": corrupt(boxed, objOff, byte(objPast), byte(objPast>>8), byte(objPast>>16), byte(objPast>>24)),
		"kind 3: overflow ref past the run":   corrupt(boxed, ovOff, byte(past), byte(past>>8), byte(past>>16)),
		"kind 3: neighbor ref past the run":   corrupt(boxed, nb0, byte(past), byte(past>>8), byte(past>>16)),
		"kind 3: neighbor list past the page": corrupt(boxed, cntOff, 0xff, 0x01),
	} {
		cases[name] = page
	}
	for name, page := range cases {
		if _, err := decodeAll(page, 1, l); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if m, err := decodeAll(boxed, 1, l); err != nil || m.Neighbors != 2 {
		t.Errorf("uncorrupted kind-3 page: %d neighbors, %v", m.Neighbors, err)
	}

	// Kind 4: varints, the bit-packed boxes and the frame are bounded by
	// the record, and every ref by the metadata run. A frame is six
	// integer cells, so it cannot be NaN; an inverted one is an error.
	framed := func(edit func([]*pendingRecord)) []byte {
		records := randomFramedPage(rand.New(rand.NewSource(3)), 0, 2, 2)
		records[1].objOrd = 1000 // a 2-byte object field
		edit(records)
		sizeRecords(records, metaBoxBits)
		page := make([]byte, storage.PageSize)
		encodeMetaPage(page, records, frameBase(records), metaBoxBits)
		return page
	}
	good := framed(func([]*pendingRecord) {})
	dir1 := framedPageOverhead - 2 + 2 // slot 1's directory entry
	start1 := int(good[dir1]) | int(good[dir1+1])<<8
	end1 := int(good[dir1+2]) | int(good[dir1+3])<<8
	objField, countField := start1+framedCellsSize, start1+framedCellsSize+2+1
	lonely := framed(func(rs []*pendingRecord) { rs[1].nbs = nil }) // slot 1 ends in its count
	lonelyEnd := int(lonely[dir1+2]) | int(lonely[dir1+3])<<8
	objPast4 := l.objectPages + 1 // stored ordinal + 1
	for name, page := range map[string][]byte{
		"kind 4: 0-bit boxes":                      corrupt(good, 1, 0),
		"kind 4: 9-bit boxes":                      corrupt(good, 1, 9),
		"kind 4: record count past the page":       corrupt(good, 2, maxFramedRecords+1, 0),
		"kind 4: inverted frame":                   corrupt(good, metaPageOverhead, 0xff, 0xff, 0xff, 0xff),
		"kind 4: record end past the page":         corrupt(good, dir1+2, 0xff, 0xff),
		"kind 4: record end before its start":      corrupt(good, dir1+2, byte(start1+3), byte((start1+3)>>8)),
		"kind 4: record offset inside the dir":     corrupt(good, dir1, 4, 0),
		"kind 4: object ordinal past the run":      corrupt(good, objField, byte(objPast4)|0x80, byte(objPast4>>7)),
		"kind 4: header varint past the record":    corrupt(lonely, lonelyEnd-1, 0x80),
		"kind 4: ref varint past the record":       corrupt(good, end1-1, good[end1-1]|0x80),
		"kind 4: bit-packed boxes past the record": corrupt(good, countField, 0x7f),
		"kind 4: neighbor ref past the run": framed(func(rs []*pendingRecord) {
			rs[1].nbs[1] = &pendingRecord{self: uint64(l.metadataPages) << slotBits}
		}),
		"kind 4: overflow ref past the run": framed(func(rs []*pendingRecord) {
			rs[1].next = &pendingRecord{self: uint64(l.metadataPages) << slotBits}
		}),
	} {
		cases[name] = page
	}
	if m, err := decodeAll(good, 1, l); err != nil || m.Neighbors != 2 || m.ObjectPage != l.objStart+1000 {
		t.Errorf("uncorrupted kind-4 page: %d neighbors, object %d, %v", m.Neighbors, m.ObjectPage, err)
	}
	sentinel := corrupt(boxed, objOff, 0xff, 0xff, 0xff, 0xff)
	if m, err := decodeAll(sentinel, 1, l); err != nil || m.ObjectPage != storage.InvalidPage {
		t.Errorf("overflow continuation: object page %d, %v", m.ObjectPage, err)
	}
	if _, err := metaPageRecordCount(corrupt(two, 2, 0xff, 0xff)); err == nil {
		t.Error("metaPageRecordCount accepted a record count past the page")
	}
}

// FuzzDecodeMetaRecord feeds the metadata decoder arbitrary page bytes:
// whatever a flipped bit or a hostile file puts on the page, every slot
// decodes to a record or an error, never a panic or a giant allocation,
// and a decoded kind-3 or kind-4 ref stays inside the layout's metadata
// run.
func FuzzDecodeMetaRecord(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	bare := make([]byte, storage.PageSize)
	encodeBarePage(bare, []bareRecord{randomBareRecord(r, 3), randomBareRecord(r, 40)})
	f.Add(bare, 1)
	f.Add([]byte{metaKindBare, 0, 0xff, 0xff, 0xf0, 0xff}, 0)
	boxed := make([]byte, storage.PageSize)
	encodeBoxedPage(boxed, []boxedRecord{randomBoxedRecord(r, 3, 2), randomBoxedRecord(r, 40, 2)}, 2)
	f.Add(boxed, 1)
	for _, w := range []byte{0, 5, 255} {
		page := append([]byte(nil), boxed...)
		page[1] = w
		f.Add(page, 1)
	}
	for _, b := range []int{1, metaBoxBits, maxBoxBits} {
		records := randomFramedPage(r, 0, 3, 40, 0)
		records[0].next = records[2]
		records[2].objOrd = noObject
		sizeRecords(records, b)
		framed := make([]byte, storage.PageSize)
		encodeMetaPage(framed, records, frameBase(records), b)
		f.Add(framed, 1)
		if b == metaBoxBits {
			for _, edit := range [][2]int{{1, 0}, {1, 9}, {metaPageOverhead + 3, 0xff}, {framedPageOverhead + 2*3 - 1, 0x10}} {
				page := append([]byte(nil), framed...)
				page[edit[0]] = byte(edit[1])
				f.Add(page, 0)
			}
		}
	}
	l := testLayout()
	f.Fuzz(func(t *testing.T, data []byte, slot int) {
		page := make([]byte, storage.PageSize)
		copy(page, data)
		count, err := metaPageRecordCount(page)
		if err != nil {
			return
		}
		if limit := map[byte]int{metaKindBare: maxBareRecords, metaKindBoxed: maxBoxedRecords, metaKindFramed: maxFramedRecords}[page[0]]; count > limit {
			t.Fatalf("kind-%d record count %d accepted", page[0], count)
		}
		m, err := decodeRecord(page, makeRef(l.metaStart(), slot), l)
		if err == nil && m.Neighbors > maxBareNeighbors {
			t.Fatalf("decoded %d neighbors", m.Neighbors)
		}
		for s := 0; s < count; s++ {
			ref := makeRef(l.metaStart(), s)
			m, err := decodeRecord(page, ref, l)
			if err != nil {
				continue
			}
			m.eachInline(l, frameOf(&m), nil, func(n RecordRef, box nbBox) error {
				if page[0] != metaKindBare && (n.Page() < l.metaStart() || n.Page() >= l.metaStart()+storage.PageID(l.metadataPages)) {
					t.Fatalf("kind-%d ref %v outside the metadata run", page[0], n)
				}
				if box.fr != nil {
					box.fr.box(&l.quant, box.v)
				}
				return nil
			})
		}
	})
}

func TestPackMetaPagesFillsPages(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	l := testLayout()
	// 400 records with 15-25 neighbors among themselves: refs depend on
	// the packing, which depends on the refs' sizes.
	records := make([]*pendingRecord, 400)
	for i := range records {
		records[i] = &pendingRecord{objOrd: uint32(i)}
		records[i].pageCells, records[i].partCells = randomCells(r, l)
	}
	for _, m := range records {
		for _, k := range r.Perm(len(records))[:15+r.Intn(10)] {
			m.nbs = append(m.nbs, records[k])
		}
	}
	groups := packMetaPages(records, metaBoxBits)
	total := 0
	for gi, g := range groups {
		n := g[1] - g[0]
		if n <= 0 || n > maxFramedRecords {
			t.Fatalf("group %d holds %d records", gi, n)
		}
		total += n
		used := framedPageOverhead
		for i := g[0]; i < g[1]; i++ {
			m := records[i]
			if want := uint64(gi)<<slotBits | uint64(i-g[0]); m.self != want {
				t.Fatalf("record %d ref %#x, want %#x", i, m.self, want)
			}
			if !slices.IsSortedFunc(m.nbs, func(a, b *pendingRecord) int { return cmp.Compare(a.self, b.self) }) {
				t.Fatalf("record %d neighbors not in ref order", i)
			}
			if m.size != m.encodedSize(metaBoxBits) {
				t.Fatalf("record %d sized %d, encodes to %d", i, m.size, m.encodedSize(metaBoxBits))
			}
			used += m.size + 2
		}
		// The group fits (encodeMetaPage panics otherwise), and all but
		// the last page are nearly full.
		buf := make([]byte, storage.PageSize)
		encodeMetaPage(buf, records[g[0]:g[1]], frameBase(records[g[0]:g[1]]), metaBoxBits)
		if gi < len(groups)-1 && used < storage.PageSize-2*(records[g[1]].size+2) {
			t.Fatalf("group %d uses %d bytes; the next record needs %d", gi, used, records[g[1]].size+2)
		}
	}
	if total != len(records) {
		t.Fatalf("groups cover %d records, want %d", total, len(records))
	}
}

// TestInlineCapFitsAPage: a record with the longest inline list, at the
// worst refs its index can give it, fits a page alone.
func TestInlineCapFitsAPage(t *testing.T) {
	for _, shape := range [][2]int{{1, 0}, {3000, 60000}, {1 << 20, 1 << 26}} {
		partitions, links := shape[0], shape[1]
		n := maxInlineNeighbors(partitions, links)
		far := &pendingRecord{self: uint64(partitions+links) << slotBits}
		m := &pendingRecord{objOrd: math.MaxUint32 - 1, next: far, nbs: make([]*pendingRecord, n)}
		for i := range m.nbs {
			m.nbs[i] = far
		}
		if size := m.encodedSize(metaBoxBits); n < 100 || size > maxFramedRecord {
			t.Errorf("%d partitions, %d links: %d neighbors inline, %d bytes against %d", partitions, links, n, size, maxFramedRecord)
		}
	}
}

func TestEncodedSize(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for b := 1; b <= maxBoxBits; b++ {
		records := randomFramedPage(r, 5, 0, 3, 17)
		records[1].next = records[0]
		sizeRecords(records, b)
		buf := make([]byte, storage.PageSize)
		encodeMetaPage(buf, records, frameBase(records), b)
		for slot, m := range records {
			dir := framedPageOverhead - 2 + 2*slot
			if got := int(buf[dir+2]) | int(buf[dir+3])<<8 - (int(buf[dir]) | int(buf[dir+1])<<8); got != m.size {
				t.Errorf("b=%d slot %d: encoded %d bytes, sized %d", b, slot, got, m.size)
			}
		}
	}
	// 18 + 12 cell bytes, one byte each for the object, overflow and
	// count fields, three 36-bit boxes in 14 bytes, and gaps of -10
	// (zigzag 19), 11 and 699 in 1, 1 and 2 bytes.
	m := &pendingRecord{objOrd: 5, self: 300, nbs: []*pendingRecord{{self: 290}, {self: 301}, {self: 1000}}}
	if got, want := m.encodedSize(6), 18+12+1+1+1+14+1+1+2; got != want {
		t.Errorf("encodedSize(6) = %d, want %d", got, want)
	}
}

// TestBoxFilterMatchesDecode holds the crawl's box test to its
// definition: a stored box meets the filter exactly when its decoded
// form intersects the query — for kind 3's world frame and for kind-4
// frames at every b, on worlds with a degenerate axis too, and for
// queries reaching outside the world.
func TestBoxFilterMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for _, world := range []geom.MBR{worldBox(), geom.Box(geom.V(-3, 5, 7), geom.V(1e-3, 5, 1e6))} {
		q := storage.NewQuantizer(world)
		l := &metaLayout{quant: q, metadataPages: 1}
		frames := []boxFrame{worldFrame}
		for b := uint(1); b <= maxBoxBits; b++ {
			lo := geom.V(r.Float64()*60, r.Float64()*60, r.Float64()*60)
			fr, err := newFrame(q.Cells(geom.Box(lo, lo.Add(geom.V(r.Float64()*40, r.Float64()*40, r.Float64()*40)))), b)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, fr, boxFrame{step: [3]uint64{1 << 32, 1 << 32, 1 << 32}, bits: b})
		}
		for _, fr := range frames {
			for i := 0; i < 3000; i++ {
				var box nbBox
				box.fr = &fr
				for j := range box.v {
					box.v[j] = uint8(r.Intn(1 << fr.bits))
				}
				if r.Intn(4) == 0 { // neighbor boxes come from real cells
					c := q.Cells(geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), r.Float64()*10))
					for f := range c {
						box.v[f] = uint8(fr.value(f, max(c[f], uint32(fr.base[f]))))
					}
				}
				lo := geom.V(r.Float64()*140-20, r.Float64()*140-20, r.Float64()*140-20)
				query := geom.Box(lo, lo.Add(geom.V(r.Float64()*30, r.Float64()*30, r.Float64()*30)))
				var f boxFilter
				f.reset(l, query)
				if got, want := box.within(f.pageLimits(0, box.fr)), fr.box(&q, box.v).Intersects(query); got != want {
					t.Fatalf("world %v frame %+v box %v query %v: filter %v, decoded %v", world, fr, box.v, query, got, want)
				}
			}
		}
	}
}

// TestPageMeetsMatchesDecode holds the seed's test on stored values to
// its definition: a kind-4 record's page MBR meets a query exactly when
// its decoded page MBR intersects it — the seed skips a record on it,
// so a false miss would lose a query's only seed.
func TestPageMeetsMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	l := testLayout()
	for i := 0; i < 50; i++ {
		records := randomFramedPage(r, 3, 4, 0, 9, 2, 30)
		sizeRecords(records, metaBoxBits)
		page := make([]byte, storage.PageSize)
		encodeMetaPage(page, records, frameBase(records), metaBoxBits)
		var mp metaPage
		if err := mp.parse(page); err != nil {
			t.Fatal(err)
		}
		var queries []geom.MBR
		for j := 0; j < 100; j++ {
			lo := geom.V(r.Float64()*110-5, r.Float64()*110-5, r.Float64()*110-5)
			queries = append(queries, geom.Box(lo, lo.Add(geom.V(r.Float64()*r.Float64()*40, r.Float64()*40, r.Float64()*40))))
		}
		// Queries touching a decoded page MBR's min x face from below,
		// and stopping one float short of it.
		for slot := range records {
			m, err := decodeRecord(page, makeRef(l.metaStart()+3, slot), l)
			if err != nil {
				t.Fatal(err)
			}
			x := m.PageMBR.Min.X
			for _, top := range []float64{x, math.Nextafter(x, math.Inf(-1))} {
				queries = append(queries, geom.Box(geom.V(top-5, m.PageMBR.Min.Y, m.PageMBR.Min.Z), geom.V(top, m.PageMBR.Max.Y, m.PageMBR.Max.Z)))
			}
		}
		for _, q := range queries {
			lim := l.quant.CellLimits(q)
			for slot := range records {
				m, err := decodeRecord(page, makeRef(l.metaStart()+3, slot), l)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := mp.pageMeets(slot, &lim), m.PageMBR.Intersects(q); got != want {
					t.Fatalf("slot %d page %v query %v: pageMeets %v, decoded %v", slot, m.PageMBR, q, got, want)
				}
			}
		}
	}
}

// TestWideRefs: an index with more metadata pages than 2-byte refs
// address (kind 3's narrowest width) stores refs whose first gaps take
// several varint bytes, and answers like brute force.
func TestWideRefs(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	els := randomElements(r, 20000, worldBox())
	ix, pool := buildIndex(t, els, Options{World: worldBox(), PageCapacity: 1})
	_, meta, _ := ix.PageCounts()
	if meta <= 1<<(16-slotBits) {
		t.Fatalf("%d metadata pages fit 2-byte refs; grow the fixture", meta)
	}
	page, err := pool.Read(ix.metaStart())
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != metaKindFramed || page[1] != metaBoxBits {
		t.Fatalf("metadata page kind %d, %d-bit boxes; want kind %d, %d-bit", page[0], page[1], metaKindFramed, metaBoxBits)
	}
	for i := 0; i < 20; i++ {
		q := geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), 2+r.Float64()*15)
		got, _, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), bruteForce(els, q)) {
			t.Fatalf("query %v: got %d elements, want %d", q, len(got), len(bruteForce(els, q)))
		}
	}
}
