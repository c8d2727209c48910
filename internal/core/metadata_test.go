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

func randomRecord(r *rand.Rand, neighbors int) *metaRecord {
	page := geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), 1+r.Float64())
	m := &metaRecord{
		PageMBR:      page,
		PartitionMBR: page.Expand(r.Float64()),
		ObjectPage:   storage.PageID(r.Uint64() >> 16),
		Overflow:     noRef,
		Neighbors:    make([]RecordRef, neighbors),
	}
	for i := range m.Neighbors {
		m.Neighbors[i] = makeRef(storage.PageID(r.Uint32()), r.Intn(100))
	}
	return m
}

func TestMetaPageCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	records := []*metaRecord{
		randomRecord(r, 0),
		randomRecord(r, 5),
		randomRecord(r, 30),
		randomRecord(r, 1),
	}
	buf := make([]byte, storage.PageSize)
	encodeMetaPage(buf, records)
	if got, err := metaPageRecordCount(buf); err != nil || got != 4 {
		t.Fatalf("record count = %d, %v", got, err)
	}
	for slot, want := range records {
		got, err := decodeMetaRecord(buf, slot)
		if err != nil {
			t.Fatal(err)
		}
		if got.PageMBR != want.PageMBR || got.PartitionMBR != want.PartitionMBR ||
			got.ObjectPage != want.ObjectPage || got.Overflow != want.Overflow {
			t.Fatalf("slot %d header mismatch", slot)
		}
		if len(got.Neighbors) != len(want.Neighbors) {
			t.Fatalf("slot %d neighbor count = %d, want %d", slot, len(got.Neighbors), len(want.Neighbors))
		}
		for i := range got.Neighbors {
			if got.Neighbors[i] != want.Neighbors[i] {
				t.Fatalf("slot %d neighbor %d mismatch", slot, i)
			}
		}
	}
}

func TestDecodeMetaRecordErrors(t *testing.T) {
	buf := make([]byte, storage.PageSize)
	encodeMetaPage(buf, []*metaRecord{randomRecord(rand.New(rand.NewSource(1)), 2)})
	if _, err := decodeMetaRecord(buf, 1); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := decodeMetaRecord(buf, -1); err == nil {
		t.Error("negative slot accepted")
	}
	var notMeta [storage.PageSize]byte
	notMeta[0] = 1 // rtree leaf kind
	if _, err := decodeMetaRecord(notMeta[:], 0); err == nil {
		t.Error("wrong page kind accepted")
	}

	// Data pages carry no checksum: each on-page value the decoder
	// indexes or allocates by, corrupted, must be an error — these used
	// to be a slice-bounds panic, an out-of-memory abort, and a read past
	// the slot directory.
	rnd := rand.New(rand.NewSource(2))
	two := make([]byte, storage.PageSize)
	encodeMetaPage(two, []*metaRecord{randomRecord(rnd, 2), randomRecord(rnd, 2)})
	corrupt := func(off int, b ...byte) []byte {
		page := append([]byte(nil), two...)
		copy(page[off:], b)
		return page
	}
	slot1 := metaPageOverhead + 2 // slot 1's directory entry
	nOff := metaPageOverhead + 2*2 + recordHeaderSize + 8*2 + recordHeaderSize - 4
	for name, page := range map[string][]byte{
		"record offset past the page":    corrupt(slot1, 0xf0, 0xff),
		"record offset inside the slots": corrupt(slot1, 2, 0),
		"neighbor count 0x7fffffff":      corrupt(nOff, 0xff, 0xff, 0xff, 0x7f),
		"neighbor list past the page":    corrupt(nOff, byte(maxInlineNeighbors&0xff), byte(maxInlineNeighbors>>8), 0, 0),
		"record count past the page":     corrupt(2, 0xff, 0xff),
	} {
		if _, err := decodeMetaRecord(page, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if m, err := decodeMetaRecord(two, 1); err != nil || len(m.Neighbors) != 2 {
		t.Errorf("uncorrupted page: %d neighbors, %v", len(m.Neighbors), err)
	}
	if _, err := metaPageRecordCount(corrupt(2, 0xff, 0xff)); err == nil {
		t.Error("metaPageRecordCount accepted a record count past the page")
	}
}

// FuzzDecodeMetaRecord feeds the metadata decoder arbitrary page bytes:
// whatever a flipped bit or a hostile file puts on the page, every slot
// decodes to a record or an error, never a panic or a giant allocation.
func FuzzDecodeMetaRecord(f *testing.F) {
	valid := make([]byte, storage.PageSize)
	r := rand.New(rand.NewSource(7))
	encodeMetaPage(valid, []*metaRecord{randomRecord(r, 3), randomRecord(r, 40)})
	f.Add(valid, 1)
	f.Add([]byte{metaPageKind, 0, 0xff, 0xff, 0xf0, 0xff}, 0)
	f.Fuzz(func(t *testing.T, data []byte, slot int) {
		page := make([]byte, storage.PageSize)
		copy(page, data)
		count, err := metaPageRecordCount(page)
		if err != nil {
			return
		}
		if count > maxMetaRecords {
			t.Fatalf("record count %d accepted", count)
		}
		m, err := decodeMetaRecord(page, slot)
		if err == nil && len(m.Neighbors) > maxInlineNeighbors {
			t.Fatalf("decoded %d neighbors", len(m.Neighbors))
		}
		for s := 0; s < count; s++ {
			decodeMetaRecord(page, s)
		}
	})
}

func TestPackMetaPagesFillsPages(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	// 100 records with ~20 neighbors each: ~270 bytes -> ~15 per page.
	records := make([]*metaRecord, 100)
	for i := range records {
		records[i] = randomRecord(r, 15+r.Intn(10))
	}
	groups, err := packMetaPages(records)
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
		// Verify the group actually fits by encoding it.
		buf := make([]byte, storage.PageSize)
		encodeMetaPage(buf, records[g[0]:g[1]])
		// Verify the group is maximal: adding the next record would
		// overflow (except for the last group).
		if gi < len(groups)-1 {
			used := metaPageOverhead
			for i := g[0]; i < g[1]; i++ {
				used += records[i].encodedSize() + 2
			}
			next := records[g[1]].encodedSize() + 2
			if used+next <= storage.PageSize {
				t.Fatalf("group %d not maximal: %d used, next needs %d", gi, used, next)
			}
		}
	}
	if total != len(records) {
		t.Fatalf("groups cover %d records, want %d", total, len(records))
	}
}

func TestPackMetaPagesRejectsGiantRecord(t *testing.T) {
	m := randomRecord(rand.New(rand.NewSource(1)), 600) // 116+4800 > 4090
	if _, err := packMetaPages([]*metaRecord{m}); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestEncodedSize(t *testing.T) {
	m := randomRecord(rand.New(rand.NewSource(1)), 3)
	if got := m.encodedSize(); got != 48+48+8+8+4+24 {
		t.Errorf("encodedSize = %d", got)
	}
}
