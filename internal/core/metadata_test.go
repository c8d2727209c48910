package core

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
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
	if ref.slot() != 42 {
		t.Errorf("slot = %d", ref.slot())
	}
	if ref.String() != "meta(123456:42)" {
		t.Errorf("String = %q", ref.String())
	}
}

// testLayout is the layout the codec tests decode against: a world of
// worldBox(), 5000 object pages from page 100 and 600 metadata pages
// after them (more than a 2-byte ref addresses).
func testLayout() *metaLayout {
	return &metaLayout{quant: storage.NewQuantizer(worldBox()), objStart: 100, objectPages: 5000, metadataPages: 600}
}

func randomCells(r *rand.Rand, l *metaLayout) (page, part [6]uint32) {
	box := geom.CubeAt(geom.V(10+r.Float64()*80, 10+r.Float64()*80, 10+r.Float64()*80), 1+r.Float64())
	return l.quant.Cells(box), l.quant.Cells(box.Expand(r.Float64()))
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

// olderKindPage returns the first metadata page of shard 0 of a
// committed index directory written before kind 4 (internal/shard's
// fixtures, named after their metadata kind): real kind-2 or kind-3
// bytes, which no decoder here reads any more.
func olderKindPage(tb testing.TB, fixture string) []byte {
	tb.Helper()
	pager, err := storage.OpenMmapPager(filepath.Join("..", "shard", "testdata", fixture, "shard-0000.flat"))
	if err != nil {
		tb.Fatal(err)
	}
	defer pager.Close()
	ix, err := OpenFrom(storage.NewConcurrentPool(pager, 0), storage.PageID(pager.NumPages()-1))
	if err != nil {
		tb.Fatal(err)
	}
	page := make([]byte, storage.PageSize)
	if err := pager.ReadPage(ix.metaStart(), page); err != nil {
		tb.Fatal(err)
	}
	return page
}

func TestDecodeMetaRecordErrors(t *testing.T) {
	l := testLayout()
	corrupt := func(page []byte, off int, b ...byte) []byte {
		page = append([]byte(nil), page...)
		copy(page[off:], b)
		return page
	}
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
	if _, err := decodeAll(good, 2, l); err == nil {
		t.Error("out-of-range slot accepted")
	}
	var notMeta [storage.PageSize]byte
	notMeta[0] = 1 // rtree leaf kind
	if _, err := decodeAll(notMeta[:], 0, l); err == nil {
		t.Error("wrong page kind accepted")
	}

	// A page of an older kind is refused whole, whatever its records
	// hold: a shard its directory's open did not upgrade fails the
	// query instead of answering it.
	for kind, fixture := range map[byte]string{2: "kind2-k2-v2", 3: "kind3-k2-v2"} {
		page := olderKindPage(t, fixture)
		if page[0] != kind {
			t.Fatalf("%s: metadata page of kind %d", fixture, page[0])
		}
		for slot := range 2 {
			if _, err := decodeAll(page, slot, l); !errors.Is(err, errMetaKind) {
				t.Errorf("kind-%d page, slot %d: %v; want the not-kind-4 error", kind, slot, err)
			}
		}
	}

	// Data pages carry no checksum: each on-page value the decoder
	// indexes or allocates by, corrupted, must be an error. Varints, the
	// bit-packed boxes and the frame are bounded by the record, and every
	// ref by the metadata run, so a corrupt ref cannot name a page
	// outside this shard's metadata run. A frame is six integer cells, so
	// it cannot be NaN; an inverted one is an error.
	dir1 := framedPageOverhead - 2 + 2 // slot 1's directory entry
	start1 := int(good[dir1]) | int(good[dir1+1])<<8
	end1 := int(good[dir1+2]) | int(good[dir1+3])<<8
	objField, countField := start1+framedCellsSize, start1+framedCellsSize+2+1
	lonely := framed(func(rs []*pendingRecord) { rs[1].nbs = nil }) // slot 1 ends in its count
	lonelyEnd := int(lonely[dir1+2]) | int(lonely[dir1+3])<<8
	objPast := l.objectPages + 1 // stored ordinal + 1
	for name, page := range map[string][]byte{
		"0-bit boxes":                      corrupt(good, 1, 0),
		"9-bit boxes":                      corrupt(good, 1, 9),
		"record count past the page":       corrupt(good, 2, maxFramedRecords+1, 0),
		"inverted frame":                   corrupt(good, metaPageOverhead, 0xff, 0xff, 0xff, 0xff),
		"record end past the page":         corrupt(good, dir1+2, 0xff, 0xff),
		"record end before its start":      corrupt(good, dir1+2, byte(start1+3), byte((start1+3)>>8)),
		"record offset inside the dir":     corrupt(good, dir1, 4, 0),
		"object ordinal past the run":      corrupt(good, objField, byte(objPast)|0x80, byte(objPast>>7)),
		"header varint past the record":    corrupt(lonely, lonelyEnd-1, 0x80),
		"ref varint past the record":       corrupt(good, end1-1, good[end1-1]|0x80),
		"bit-packed boxes past the record": corrupt(good, countField, 0x7f),
		"neighbor ref past the run": framed(func(rs []*pendingRecord) {
			rs[1].nbs[1] = &pendingRecord{self: uint64(l.metadataPages) << slotBits}
		}),
		"overflow ref past the run": framed(func(rs []*pendingRecord) {
			rs[1].next = &pendingRecord{self: uint64(l.metadataPages) << slotBits}
		}),
	} {
		if _, err := decodeAll(page, 1, l); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if m, err := decodeAll(good, 1, l); err != nil || m.Neighbors != 2 || m.ObjectPage != l.objStart+1000 {
		t.Errorf("uncorrupted page: %d neighbors, object %d, %v", m.Neighbors, m.ObjectPage, err)
	}
	continuation := framed(func(rs []*pendingRecord) { rs[1].objOrd = noObject })
	if m, err := decodeAll(continuation, 1, l); err != nil || m.ObjectPage != storage.InvalidPage {
		t.Errorf("overflow continuation: object page %d, %v", m.ObjectPage, err)
	}
	if _, err := metaPageRecordCount(corrupt(good, 2, 0xff, 0xff)); err == nil {
		t.Error("metaPageRecordCount accepted a record count past the page")
	}
}

// FuzzDecodeMetaRecord feeds the metadata decoder arbitrary page bytes:
// whatever a flipped bit or a hostile file puts on the page, every slot
// decodes to a record or an error, never a panic or a giant allocation,
// a decoded ref stays inside the layout's metadata run, and a page whose
// kind byte is not 4 is an error. Its first seeds are pages of the older
// kinds 2 and 3, real and edited.
func FuzzDecodeMetaRecord(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	f.Add(olderKindPage(f, "kind2-k2-v2"), 1)
	f.Add([]byte{2, 0, 0xff, 0xff, 0xf0, 0xff}, 0)
	boxed := olderKindPage(f, "kind3-k2-v2")
	f.Add(boxed, 1)
	for _, w := range []byte{0, 5, 255} { // kind 3's ref width byte
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
		if page[0] != metaKindFramed || count > maxFramedRecords {
			t.Fatalf("kind-%d page of %d records accepted", page[0], count)
		}
		m, err := decodeRecord(page, makeRef(l.metaStart(), slot), l)
		if err == nil && m.Neighbors > maxFramedRecord {
			t.Fatalf("decoded %d neighbors", m.Neighbors)
		}
		for s := 0; s < count; s++ {
			ref := makeRef(l.metaStart(), s)
			m, err := decodeRecord(page, ref, l)
			if err != nil {
				continue
			}
			m.eachInline(l, frameOf(&m), nil, func(n RecordRef, box nbBox) error {
				if n.Page() < l.metaStart() || n.Page() >= l.metaStart()+storage.PageID(l.metadataPages) {
					t.Fatalf("ref %v outside the metadata run", n)
				}
				box.fr.box(&l.quant, box.v)
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
// form intersects the query — for frames at every b, on worlds with a
// degenerate axis too, and for queries reaching outside the world.
func TestBoxFilterMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for _, world := range []geom.MBR{worldBox(), geom.Box(geom.V(-3, 5, 7), geom.V(1e-3, 5, 1e6))} {
		q := storage.NewQuantizer(world)
		l := &metaLayout{quant: q, metadataPages: 1}
		var frames []boxFrame
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
// its definition: a record's page MBR meets a query exactly when
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

// TestWideRefs: an index with more metadata pages than a 2-byte ref
// addresses stores refs whose first gaps take several varint bytes, and
// answers like brute force.
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
