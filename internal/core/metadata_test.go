package core

import (
	"math/rand"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

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

// randomRecord returns a kind-3 record valid under testLayout with
// w-byte refs.
func randomRecord(r *rand.Rand, neighbors, w int) *pendingRecord {
	l := testLayout()
	m := &pendingRecord{objOrd: uint32(r.Intn(l.objectPages)), neighbors: make([]pendingNeighbor, neighbors)}
	m.pageCells, m.partCells = randomCells(r, l)
	pages := min(l.metadataPages, maxMetaPages(w))
	for i := range m.neighbors {
		_, cells := randomCells(r, l)
		m.neighbors[i] = pendingNeighbor{ref: uint64(r.Intn(pages))<<slotBits | uint64(r.Intn(maxBoxedRecords)), box: neighborBox(cells)}
	}
	return m
}

func TestMetaPageCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	l := testLayout()
	for w := minRefWidth; w <= maxRefWidth; w++ {
		records := []*pendingRecord{randomRecord(r, 0, w), randomRecord(r, 5, w), randomRecord(r, 30, w), randomRecord(r, 1, w)}
		records[1].next = records[3] // an overflow pointer
		records[3].self = 7<<slotBits | 3
		records[3].objOrd = noObject
		buf := make([]byte, storage.PageSize)
		encodeMetaPage(buf, records, w)
		if got, err := metaPageRecordCount(buf); err != nil || got != 4 {
			t.Fatalf("w=%d: record count = %d, %v", w, got, err)
		}
		for slot, want := range records {
			got, err := decodeMetaRecord(buf, slot, l)
			if err != nil {
				t.Fatal(err)
			}
			wantObj, wantOverflow := l.objStart+storage.PageID(want.objOrd), noRef
			if want.objOrd == noObject {
				wantObj = storage.InvalidPage
			}
			if want.next != nil {
				wantOverflow = makeRef(l.metaStart()+7, 3)
			}
			if got.PageMBR != l.quant.Box(want.pageCells) || got.PartitionMBR != l.quant.Box(want.partCells) ||
				got.ObjectPage != wantObj || got.Overflow != wantOverflow {
				t.Fatalf("w=%d slot %d header mismatch: %+v", w, slot, got)
			}
			if got.Neighbors != len(want.neighbors) {
				t.Fatalf("w=%d slot %d neighbor count = %d, want %d", w, slot, got.Neighbors, len(want.neighbors))
			}
			for i, n := range want.neighbors {
				ref, box, err := got.neighbor(i, l)
				wantRef := makeRef(l.metaStart()+storage.PageID(n.ref>>slotBits), int(n.ref&(1<<slotBits-1)))
				if err != nil || ref != wantRef || string(box) != string(n.box[:]) {
					t.Fatalf("w=%d slot %d neighbor %d = (%v, %v, %v), want (%v, %v)", w, slot, i, ref, box, err, wantRef, n.box)
				}
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
		got, err := decodeMetaRecord(buf, slot, testLayout())
		if err != nil {
			t.Fatal(err)
		}
		if got.PageMBR != want.pageMBR || got.PartitionMBR != want.partMBR || got.ObjectPage != want.object ||
			got.Overflow != want.overflow || got.Neighbors != len(want.neighbors) {
			t.Fatalf("slot %d header mismatch: %+v", slot, got)
		}
		for i, n := range want.neighbors {
			if ref, box, err := got.neighbor(i, testLayout()); ref != n || box != nil || err != nil {
				t.Fatalf("slot %d neighbor %d = (%v, %v, %v), want (%v, nil, nil)", slot, i, ref, box, err, n)
			}
		}
	}
}

// decodeAll decodes slot and walks its neighbor list: what a crawl does
// with a record, so an error either step reports is the decoder's.
func decodeAll(page []byte, slot int, l *metaLayout) (metaRecord, error) {
	m, err := decodeMetaRecord(page, slot, l)
	for i := 0; err == nil && i < m.Neighbors; i++ {
		_, _, err = m.neighbor(i, l)
	}
	return m, err
}

func TestDecodeMetaRecordErrors(t *testing.T) {
	l := testLayout()
	buf := make([]byte, storage.PageSize)
	encodeBarePage(buf, []bareRecord{randomBareRecord(rand.New(rand.NewSource(1)), 2)})
	if _, err := decodeMetaRecord(buf, 1, l); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := decodeMetaRecord(buf, -1, l); err == nil {
		t.Error("negative slot accepted")
	}
	var notMeta [storage.PageSize]byte
	notMeta[0] = 1 // rtree leaf kind
	if _, err := decodeMetaRecord(notMeta[:], 0, l); err == nil {
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
	encodeMetaPage(boxed, []*pendingRecord{randomRecord(rnd, 2, w), randomRecord(rnd, 2, w)}, w)
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
// and a decoded kind-3 ref stays inside the layout's metadata run.
func FuzzDecodeMetaRecord(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	bare := make([]byte, storage.PageSize)
	encodeBarePage(bare, []bareRecord{randomBareRecord(r, 3), randomBareRecord(r, 40)})
	f.Add(bare, 1)
	f.Add([]byte{metaKindBare, 0, 0xff, 0xff, 0xf0, 0xff}, 0)
	boxed := make([]byte, storage.PageSize)
	encodeMetaPage(boxed, []*pendingRecord{randomRecord(r, 3, 2), randomRecord(r, 40, 2)}, 2)
	f.Add(boxed, 1)
	for _, w := range []byte{0, 5, 255} {
		page := append([]byte(nil), boxed...)
		page[1] = w
		f.Add(page, 1)
	}
	l := testLayout()
	f.Fuzz(func(t *testing.T, data []byte, slot int) {
		page := make([]byte, storage.PageSize)
		copy(page, data)
		count, err := metaPageRecordCount(page)
		if err != nil {
			return
		}
		if count > maxBoxedRecords {
			t.Fatalf("record count %d accepted", count)
		}
		m, err := decodeMetaRecord(page, slot, l)
		if err == nil && m.Neighbors > maxBareNeighbors {
			t.Fatalf("decoded %d neighbors", m.Neighbors)
		}
		for s := 0; s < count; s++ {
			m, err := decodeMetaRecord(page, s, l)
			for i := 0; err == nil && i < m.Neighbors; i++ {
				var ref RecordRef
				if ref, _, err = m.neighbor(i, l); err == nil && page[0] == metaKindBoxed &&
					(ref.Page() < l.metaStart() || ref.Page() >= l.metaStart()+storage.PageID(l.metadataPages)) {
					t.Fatalf("kind-3 ref %v outside the metadata run", ref)
				}
			}
		}
	})
}

func TestPackMetaPagesFillsPages(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for w := minRefWidth; w <= maxRefWidth; w++ {
		// 100 records with ~20 neighbors each: ~220 bytes -> ~18 per page.
		records := make([]*pendingRecord, 100)
		for i := range records {
			records[i] = randomRecord(r, 15+r.Intn(10), w)
		}
		groups, err := packMetaPages(records, w)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for gi, g := range groups {
			n := g[1] - g[0]
			if n <= 0 {
				t.Fatalf("group %d empty", gi)
			}
			total += n
			for i := g[0]; i < g[1]; i++ {
				if want := uint64(gi)<<slotBits | uint64(i-g[0]); records[i].self != want {
					t.Fatalf("record %d ref %#x, want %#x", i, records[i].self, want)
				}
			}
			// Verify the group actually fits by encoding it.
			buf := make([]byte, storage.PageSize)
			encodeMetaPage(buf, records[g[0]:g[1]], w)
			// Verify the group is maximal: adding the next record would
			// overflow (except for the last group).
			if gi < len(groups)-1 {
				used := metaPageOverhead
				for i := g[0]; i < g[1]; i++ {
					used += records[i].encodedSize(w) + 2
				}
				next := records[g[1]].encodedSize(w) + 2
				if used+next <= storage.PageSize {
					t.Fatalf("group %d not maximal: %d used, next needs %d", gi, used, next)
				}
			}
		}
		if total != len(records) {
			t.Fatalf("groups cover %d records, want %d", total, len(records))
		}
	}
}

func TestPackMetaPagesRejectsGiantRecord(t *testing.T) {
	m := randomRecord(rand.New(rand.NewSource(1)), 600, 2) // 56+4800 > 4090
	if _, err := packMetaPages([]*pendingRecord{m}, 2); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestEncodedSize(t *testing.T) {
	m := randomRecord(rand.New(rand.NewSource(1)), 3, 2)
	for w, want := range map[int]int{2: 24 + 24 + 4 + 2 + 2 + 3*8, 3: 24 + 24 + 4 + 3 + 2 + 3*9, 4: 24 + 24 + 4 + 4 + 2 + 3*10} {
		if got := m.encodedSize(w); got != want {
			t.Errorf("encodedSize(%d) = %d, want %d", w, got, want)
		}
	}
}

// TestBoxFilterMatchesDecode holds the crawl's six-byte box test to its
// definition: a stored box meets the filter exactly when its decoded
// form intersects the query — on worlds with a degenerate axis too, and
// for queries reaching outside the world.
func TestBoxFilterMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for _, world := range []geom.MBR{worldBox(), geom.Box(geom.V(-3, 5, 7), geom.V(1e-3, 5, 1e6))} {
		q := storage.NewQuantizer(world)
		for i := 0; i < 20000; i++ {
			var b [boxSize]byte
			for j := range b {
				b[j] = byte(r.Intn(256))
			}
			if r.Intn(4) == 0 { // neighbor boxes come from real cells
				b = neighborBox(q.Cells(geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), r.Float64()*10)))
			}
			lo := geom.V(r.Float64()*140-20, r.Float64()*140-20, r.Float64()*140-20)
			query := geom.Box(lo, lo.Add(geom.V(r.Float64()*30, r.Float64()*30, r.Float64()*30)))
			f := newBoxFilter(&q, query)
			if got, want := f.meets(b[:]), decodeBox(&q, b[:]).Intersects(query); got != want {
				t.Fatalf("world %v box %v query %v: filter %v, decoded %v", world, b, query, got, want)
			}
		}
	}
}

// TestWideRefs: an index with more metadata pages than 2-byte refs
// address writes 3-byte refs, and answers like brute force.
func TestWideRefs(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	els := randomElements(r, 13000, worldBox())
	ix, pool := buildIndex(t, els, Options{World: worldBox(), PageCapacity: 1})
	_, meta, _ := ix.PageCounts()
	if meta <= maxMetaPages(2) {
		t.Fatalf("%d metadata pages fit 2-byte refs; grow the fixture", meta)
	}
	page, err := pool.Read(ix.metaStart())
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != metaKindBoxed || page[1] != 3 {
		t.Fatalf("metadata page kind %d width %d, want kind %d width 3", page[0], page[1], metaKindBoxed)
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
