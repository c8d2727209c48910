package storage_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"flat/internal/geom"
	"flat/internal/rtree"
	"flat/internal/storage"
)

func randomElements(rng *rand.Rand, n int, spread float64) []geom.Element {
	els := make([]geom.Element, n)
	for i := range els {
		c := geom.Vec3{
			X: (rng.Float64() - 0.5) * spread,
			Y: (rng.Float64() - 0.5) * spread,
			Z: (rng.Float64() - 0.5) * spread,
		}
		side := rng.Float64() * spread / 100
		els[i] = geom.Element{ID: uint64(i + 1), Box: geom.CubeAt(c, side)}
	}
	return els
}

func TestObjectPageCapacities(t *testing.T) {
	if got := storage.ObjectPageCapacity(storage.PageFormatV1); got != rtree.NodeCapacity {
		t.Fatalf("v1 capacity %d != rtree.NodeCapacity %d", got, rtree.NodeCapacity)
	}
	v1 := storage.ObjectPageCapacity(storage.PageFormatV1)
	v2 := storage.ObjectPageCapacity(storage.PageFormatV2)
	if v1 != 73 || v2 != 126 {
		t.Fatalf("capacities v1=%d v2=%d, want 73 and 126", v1, v2)
	}
	if ratio := float64(v2) / float64(v1); ratio < 1.5 {
		t.Fatalf("v2/v1 capacity ratio %.2f < 1.5", ratio)
	}
	// Zero (unspecified) format resolves to the default.
	if got := storage.ObjectPageCapacity(0); got != storage.ObjectPageCapacity(storage.DefaultPageFormat) {
		t.Fatalf("capacity(0) = %d", got)
	}
	// v2 capacity grows as the id span narrows: (4096 − 60) / (24 + w)
	// at a w-byte span, 126 when the span needs all 8 bytes.
	for _, c := range []struct {
		span uint64
		want int
	}{
		{0, 161}, {0xff, 161}, {0x100, 155}, {1<<24 - 1, 149}, {1 << 24, 144},
		{1<<56 - 1, 130}, {1 << 56, 126}, {math.MaxUint64, 126},
	} {
		if got := storage.ObjectPageCapacityForSpan(storage.PageFormatV2, c.span); got != c.want {
			t.Errorf("v2 capacity at span %#x = %d, want %d", c.span, got, c.want)
		}
		if got := storage.ObjectPageCapacityForSpan(storage.PageFormatV1, c.span); got != v1 {
			t.Errorf("v1 capacity at span %#x = %d, want %d", c.span, got, v1)
		}
	}
}

// spanElements returns n elements with ids base + i·step.
func spanElements(rng *rand.Rand, n int, base, step uint64) []geom.Element {
	els := randomElements(rng, n, 57)
	for i := range els {
		els[i].ID = base + uint64(i)*step
	}
	return els
}

// TestObjectPageV2FullPageEveryWidth fills a page at each id width's
// capacity, with the span at the top of the width: the page carries
// the width in its flags byte, round-trips exactly, and one element
// more is refused. A full page is where the decoder's 8-byte id load
// sits closest to the page end.
func TestObjectPageV2FullPageEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for w := 1; w <= 7; w++ {
		span := uint64(1)<<(8*w) - 1
		n := storage.ObjectPageCapacityForSpan(storage.PageFormatV2, span)
		for _, base := range []uint64{0, 1 << 40, math.MaxUint64 - span} {
			els := spanElements(rng, n, base, span/uint64(n-1))
			els[n-1].ID = base + span
			checkV2RoundTrip(t, els)
			var page [storage.PageSize]byte
			if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, els); err != nil {
				t.Fatal(err)
			}
			if page[1] != byte(w) {
				t.Fatalf("width %d: flags byte %d", w, page[1])
			}
			more := append(els, geom.Element{ID: base, Box: els[0].Box})
			if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, more); err == nil {
				t.Fatalf("width %d: %d elements encoded, capacity %d", w, len(more), n)
			}
		}
	}
}

// TestObjectPageV2WideIDsKeepOriginalLayout pins compatibility with v2
// pages written before ids were narrowed: ids whose span needs all 8
// bytes are encoded as the original layout — flags 0, no base field,
// full u64 ids, 126 elements — and that layout decodes through the
// same loop as the narrow one.
func TestObjectPageV2WideIDsKeepOriginalLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	els := randomElements(rng, storage.ObjectPageCapacityV2, 57)
	for i := range els {
		els[i].ID = uint64(i)<<57 | uint64(i)
	}
	var page [storage.PageSize]byte
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, els); err != nil {
		t.Fatal(err)
	}
	if page[1] != 0 {
		t.Fatalf("flags byte %d, want 0", page[1])
	}
	// Element 1's id follows the 52-byte header, element 0's 32 bytes
	// and its own 24 bytes of cells.
	if id := binary.LittleEndian.Uint64(page[52+24+32:]); id != els[1].ID {
		t.Fatalf("element 1's id field holds %#x, want the full id %#x", id, els[1].ID)
	}
	checkV2RoundTrip(t, els)
	more := append(els, geom.Element{ID: 1, Box: els[0].Box})
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, more); err == nil {
		t.Fatal("127 wide-id elements encoded")
	}
}

// TestDecodeObjectPageAllocatesNothing: decoding into a buffer with
// room for the page's elements costs no allocation, at a narrow id
// width and on a flags-0 page alike.
func TestDecodeObjectPageAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, step := range []uint64{1000, 1 << 57} {
		els := spanElements(rng, storage.ObjectPageCapacityV2, 5, step)
		page := make([]byte, storage.PageSize)
		if err := storage.EncodeObjectPage(page, storage.PageFormatV2, els); err != nil {
			t.Fatal(err)
		}
		dst := make([]geom.Element, 0, len(els))
		n := testing.AllocsPerRun(100, func() {
			if _, err := storage.DecodeObjectPageInto(page, dst[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("decode of a flags-%d page: %v allocations, want 0", page[1], n)
		}
	}
}

// On-page kind bytes of v1 and v2 object pages.
const (
	objectKindV1 = 1
	objectKindV2 = 3
)

// checkV2RoundTrip encodes els as v2, decodes, and verifies the codec
// invariants: ids and order preserved, every decoded box contains its
// original and lies inside the page reference MBR.
func checkV2RoundTrip(t *testing.T, els []geom.Element) {
	t.Helper()
	var page [storage.PageSize]byte
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, els); err != nil {
		t.Fatal(err)
	}
	if n, err := storage.ObjectPageCount(page[:]); err != nil || n != len(els) || page[0] != objectKindV2 {
		t.Fatalf("count %d (%v) of kind %d, want %d of kind %d", n, err, page[0], len(els), objectKindV2)
	}
	dec, err := storage.DecodeObjectPageInto(page[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(els) {
		t.Fatalf("decoded %d elements, want %d", len(dec), len(els))
	}
	ref := geom.ElementsMBR(els) // the page's reference MBR
	for i := range dec {
		if dec[i].ID != els[i].ID {
			t.Fatalf("element %d: id %d != %d", i, dec[i].ID, els[i].ID)
		}
		if !dec[i].Box.Contains(els[i].Box) {
			t.Fatalf("element %d: decoded %v does not contain original %v", i, dec[i].Box, els[i].Box)
		}
		if len(els) > 0 && !ref.Contains(dec[i].Box) {
			t.Fatalf("element %d: decoded %v escapes reference %v", i, dec[i].Box, ref)
		}
	}
}

func TestObjectPageV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 73, storage.ObjectPageCapacityV2, storage.ObjectPageCapacityForSpan(storage.PageFormatV2, 0)} {
		checkV2RoundTrip(t, randomElements(rng, n, 57))
	}
}

func TestObjectPageV2Slack(t *testing.T) {
	// The decoded boxes may be wider than the originals, but only by
	// about extent/2^32 per axis — verify the slack is that small, so
	// false positives stay out of reach of realistic query workloads.
	rng := rand.New(rand.NewSource(13))
	els := randomElements(rng, 126, 57)
	var page [storage.PageSize]byte
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, els); err != nil {
		t.Fatal(err)
	}
	dec, err := storage.DecodeObjectPageInto(page[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := geom.ElementsMBR(els) // the page's reference MBR
	for a := 0; a < 3; a++ {
		maxSlack := 4 * (ref.Max.Axis(a) - ref.Min.Axis(a)) / (1 << 32)
		for i := range dec {
			lo := els[i].Box.Min.Axis(a) - dec[i].Box.Min.Axis(a)
			hi := dec[i].Box.Max.Axis(a) - els[i].Box.Max.Axis(a)
			if lo < 0 || hi < 0 || lo > maxSlack || hi > maxSlack {
				t.Fatalf("element %d axis %d: slack lo=%g hi=%g (max %g)", i, a, lo, hi, maxSlack)
			}
		}
	}
}

func TestObjectPageV2DegenerateExact(t *testing.T) {
	// Elements on the reference boundary decode exactly: a single
	// element, identical points, and a degenerate axis all round-trip
	// bit-for-bit.
	cases := [][]geom.Element{
		{{ID: 1, Box: geom.CubeAt(geom.Vec3{X: 3.7, Y: -1.2, Z: 9}, 2.5)}},
		{{ID: 1, Box: geom.PointBox(geom.Vec3{X: 1, Y: 2, Z: 3})},
			{ID: 2, Box: geom.PointBox(geom.Vec3{X: 1, Y: 2, Z: 3})}},
		{{ID: 1, Box: geom.Box(geom.Vec3{X: 0, Y: 5, Z: 1}, geom.Vec3{X: 2, Y: 5, Z: 4})},
			{ID: 2, Box: geom.Box(geom.Vec3{X: 0, Y: 5, Z: 1}, geom.Vec3{X: 2, Y: 5, Z: 4})}},
	}
	for ci, els := range cases {
		var page [storage.PageSize]byte
		if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, els); err != nil {
			t.Fatal(err)
		}
		dec, err := storage.DecodeObjectPageInto(page[:], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if dec[i] != els[i] {
				t.Fatalf("case %d element %d: got %+v want %+v", ci, i, dec[i], els[i])
			}
		}
	}
}

func TestObjectPageEncodeErrors(t *testing.T) {
	var page [storage.PageSize]byte
	tooMany := randomElements(rand.New(rand.NewSource(1)), storage.ObjectPageCapacityForSpan(storage.PageFormatV2, 0)+1, 10)
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, tooMany); err == nil {
		t.Fatal("over-capacity v2 encode succeeded")
	}
	wide := append([]geom.Element(nil), tooMany[:storage.ObjectPageCapacityV2+1]...)
	wide[0].ID = math.MaxUint64
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, wide); err == nil {
		t.Fatal("127 elements with a full-width id span encoded as v2")
	}
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV1, tooMany[:storage.ObjectPageCapacityV1+1]); err == nil {
		t.Fatal("over-capacity v1 encode succeeded")
	}
	bad := []geom.Element{{ID: 1, Box: geom.MBR{Min: geom.Vec3{X: math.NaN()}}}}
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, bad); err == nil {
		t.Fatal("NaN box encoded as v2")
	}
	if err := storage.EncodeObjectPage(page[:], storage.PageFormat(9), nil); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestObjectPageDecodeErrors(t *testing.T) {
	var page [storage.PageSize]byte
	page[0] = 0 // rtree internal node kind: not an object page
	if _, err := storage.DecodeObjectPageInto(page[:], nil); err == nil {
		t.Fatal("decoded an internal node as object page")
	}
	page[0] = 1
	binary.LittleEndian.PutUint16(page[2:], 60000) // count over capacity
	if _, err := storage.DecodeObjectPageInto(page[:], nil); err == nil {
		t.Fatal("decoded an over-capacity count")
	}
	if _, err := storage.DecodeObjectPageInto(page[:16], nil); err == nil {
		t.Fatal("decoded a short buffer")
	}

	// v2: flags above 7, a count above the capacity of the page's own
	// id width, and a base field past the end of a short page.
	page[0] = objectKindV2
	for flags := 0; flags <= 255; flags++ {
		page[1] = byte(flags)
		binary.LittleEndian.PutUint16(page[2:], 0)
		_, err := storage.DecodeObjectPageInto(page[:], nil)
		if _, cerr := storage.ObjectPageCount(page[:]); (err == nil) != (flags <= 7) || (cerr == nil) != (flags <= 7) {
			t.Fatalf("flags %d: decode %v, count %v", flags, err, cerr)
		}
	}
	for _, c := range []struct {
		flags byte
		max   int
	}{{0, 126}, {1, 161}, {3, 149}, {7, 130}} {
		page[1] = c.flags
		binary.LittleEndian.PutUint16(page[2:], uint16(c.max))
		if _, err := storage.DecodeObjectPageInto(page[:], nil); err != nil {
			t.Fatalf("flags %d: count %d refused: %v", c.flags, c.max, err)
		}
		binary.LittleEndian.PutUint16(page[2:], uint16(c.max+1))
		if _, err := storage.DecodeObjectPageInto(page[:], nil); err == nil {
			t.Fatalf("flags %d: count %d decoded", c.flags, c.max+1)
		}
	}
	page[1] = 3
	binary.LittleEndian.PutUint16(page[2:], 0)
	if _, err := storage.ObjectPageCount(page[:56]); err == nil {
		t.Fatal("counted a v2 page whose base field runs past its end")
	}
	if _, err := storage.ObjectPageCount(page[:60]); err != nil {
		t.Fatalf("a 60-byte v2 header: %v", err)
	}
}

// FuzzPageCodecRoundTrip fuzzes both directions of the codec: arbitrary
// elements must round-trip with the containment invariant through both
// formats, so must the same boxes with ids packed at the narrow-id
// capacity, and arbitrary page bytes must decode without panicking or
// reading out of bounds, and never under a v2 flags byte above 7.
func FuzzPageCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	seed := make([]byte, 56)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, false)
	// A finite box per element, with ids near 2^64−1 and at each width.
	for w := 0; w < 7; w++ {
		el := make([]byte, 56)
		for a := 0; a < 6; a++ {
			binary.LittleEndian.PutUint64(el[a*8:], math.Float64bits(float64(a%3+w)))
		}
		binary.LittleEndian.PutUint64(el[48:], math.MaxUint64-uint64(w))
		f.Add(append(el, el...), false)
	}
	// v2 headers with every flags value from 1 to 8, claiming a count
	// any width holds (100) and the capacity of a 1-byte width (161).
	for flags := byte(1); flags <= 8; flags++ {
		f.Add([]byte{objectKindV2, flags, 100, 0}, true)
		f.Add([]byte{objectKindV2, flags, 161, 0}, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		if raw {
			// Treat the input as page bytes: decoding must never panic,
			// whatever the header claims.
			page := make([]byte, storage.PageSize)
			copy(page, data)
			els, err := storage.DecodeObjectPageInto(page, nil)
			if err == nil && page[0] == objectKindV2 && page[1] > 7 {
				t.Fatalf("decoded %d elements under v2 flags %d", len(els), page[1])
			}
			return
		}
		// Treat the input as element material.
		els := elementsFromBytes(data)
		for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
			fuzzRoundTrip(t, format, els)
		}
		if len(els) == 0 {
			return
		}
		// The same boxes, cycled to fill a page at the capacity of a
		// w-byte id span, with ids spread over base..base+span and the
		// base taken from the first id (clamped so the span fits).
		w := 1 + int(els[0].ID%7)
		span := uint64(1)<<(8*w) - 1
		base := min(els[0].ID, math.MaxUint64-span)
		n := storage.ObjectPageCapacityForSpan(storage.PageFormatV2, span)
		narrow := make([]geom.Element, n)
		for i := range narrow {
			narrow[i] = geom.Element{ID: base + uint64(i)*(span/uint64(n-1)), Box: els[i%len(els)].Box}
		}
		if page := fuzzRoundTrip(t, storage.PageFormatV2, narrow); page[1] != byte(w) {
			t.Fatalf("ids spanning %d bytes: flags byte %d", w, page[1])
		}
	})
}

// fuzzRoundTrip encodes els under format, checks that the page decodes
// to the same ids with containing boxes (bit-exact under v1), and
// returns the page.
func fuzzRoundTrip(t *testing.T, format storage.PageFormat, els []geom.Element) []byte {
	t.Helper()
	page := make([]byte, storage.PageSize)
	if err := storage.EncodeObjectPage(page, format, els); err != nil {
		t.Fatalf("%s encode: %v", format, err)
	}
	if kind := map[storage.PageFormat]byte{storage.PageFormatV1: objectKindV1, storage.PageFormatV2: objectKindV2}[format]; page[0] != kind {
		t.Fatalf("%s page has kind %d, want %d", format, page[0], kind)
	}
	if n, err := storage.ObjectPageCount(page); err != nil || n != len(els) {
		t.Fatalf("count: %d %v, want %d", n, err, len(els))
	}
	dec, err := storage.DecodeObjectPageInto(page, nil)
	if err != nil {
		t.Fatalf("%s decode: %v", format, err)
	}
	if len(dec) != len(els) {
		t.Fatalf("%s: decoded %d of %d elements", format, len(dec), len(els))
	}
	for i := range dec {
		if dec[i].ID != els[i].ID {
			t.Fatalf("%s element %d: id %d != %d", format, i, dec[i].ID, els[i].ID)
		}
		if !dec[i].Box.Contains(els[i].Box) {
			t.Fatalf("%s element %d: decoded %v does not contain %v", format, i, dec[i].Box, els[i].Box)
		}
		if format == storage.PageFormatV1 && dec[i].Box != els[i].Box {
			t.Fatalf("v1 element %d not bit-exact", i)
		}
	}
	return page
}

func benchmarkDecode(b *testing.B, format storage.PageFormat) {
	rng := rand.New(rand.NewSource(3))
	els := randomElements(rng, storage.ObjectPageCapacity(format), 57)
	page := make([]byte, storage.PageSize)
	if err := storage.EncodeObjectPage(page, format, els); err != nil {
		b.Fatal(err)
	}
	scratch := make([]geom.Element, 0, len(els))
	b.SetBytes(storage.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = storage.DecodeObjectPageInto(page, scratch[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(els)), "elements/page")
}

func BenchmarkDecodeObjectPageV1(b *testing.B) { benchmarkDecode(b, storage.PageFormatV1) }
func BenchmarkDecodeObjectPageV2(b *testing.B) { benchmarkDecode(b, storage.PageFormatV2) }
