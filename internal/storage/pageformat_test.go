package storage_test

import (
	"bytes"
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
}

// TestObjectPageV1ByteIdentical pins the compatibility contract: the v1
// encoder must produce exactly the bytes rtree.EncodeNode always wrote,
// so pre-v2 index files and new v1 builds are interchangeable.
func TestObjectPageV1ByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	els := randomElements(rng, storage.ObjectPageCapacityV1, 100)

	var viaStorage, viaRtree [storage.PageSize]byte
	if err := storage.EncodeObjectPage(viaStorage[:], storage.PageFormatV1, els); err != nil {
		t.Fatal(err)
	}
	entries := make([]rtree.NodeEntry, len(els))
	for i, e := range els {
		entries[i] = rtree.NodeEntry{Box: e.Box, Ref: e.ID}
	}
	rtree.EncodeNode(viaRtree[:], true, entries)
	if !bytes.Equal(viaStorage[:], viaRtree[:]) {
		t.Fatal("v1 object page differs from rtree leaf encoding")
	}

	dec, err := storage.DecodeObjectPageInto(viaStorage[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(els) {
		t.Fatalf("decoded %d elements, want %d", len(dec), len(els))
	}
	for i := range dec {
		if dec[i] != els[i] {
			t.Fatalf("element %d: got %+v want %+v", i, dec[i], els[i])
		}
	}
}

// checkV2RoundTrip encodes els as v2, decodes, and verifies the codec
// invariants: ids and order preserved, every decoded box contains its
// original and lies inside the page reference MBR.
func checkV2RoundTrip(t *testing.T, els []geom.Element) {
	t.Helper()
	var page [storage.PageSize]byte
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, els); err != nil {
		t.Fatal(err)
	}
	if f, err := storage.ObjectPageFormat(page[:]); err != nil || f != storage.PageFormatV2 {
		t.Fatalf("format sniff: %v %v", f, err)
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
	for _, n := range []int{0, 1, 2, 73, storage.ObjectPageCapacityV2} {
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
	tooMany := randomElements(rand.New(rand.NewSource(1)), storage.ObjectPageCapacityV2+1, 10)
	if err := storage.EncodeObjectPage(page[:], storage.PageFormatV2, tooMany); err == nil {
		t.Fatal("over-capacity v2 encode succeeded")
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
}

// FuzzPageCodecRoundTrip fuzzes both directions of the codec: arbitrary
// elements must round-trip with the containment invariant through both
// formats, and arbitrary page bytes must decode without panicking or
// reading out of bounds.
func FuzzPageCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	seed := make([]byte, 56)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, false)
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		if raw {
			// Treat the input as page bytes: decoding must never panic,
			// whatever the header claims.
			page := make([]byte, storage.PageSize)
			copy(page, data)
			if els, err := storage.DecodeObjectPageInto(page, nil); err == nil {
				for _, e := range els {
					_ = e
				}
			}
			return
		}
		// Treat the input as element material: 7 uint64 words each (6
		// coordinates + id), boxes normalized via geom.Box.
		var els []geom.Element
		for len(data) >= 56 && len(els) < storage.ObjectPageCapacityV2 {
			var w [7]uint64
			for i := range w {
				w[i] = binary.LittleEndian.Uint64(data[i*8:])
			}
			data = data[56:]
			a := geom.Vec3{X: math.Float64frombits(w[0]), Y: math.Float64frombits(w[1]), Z: math.Float64frombits(w[2])}
			b := geom.Vec3{X: math.Float64frombits(w[3]), Y: math.Float64frombits(w[4]), Z: math.Float64frombits(w[5])}
			box := geom.Box(a, b)
			if !box.Valid() {
				continue // v2 rejects non-finite boxes
			}
			els = append(els, geom.Element{ID: w[6], Box: box})
		}
		for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
			page := make([]byte, storage.PageSize)
			if err := storage.EncodeObjectPage(page, format, els); err != nil {
				t.Fatalf("%s encode: %v", format, err)
			}
			got, err := storage.ObjectPageFormat(page)
			if err != nil || got != format {
				t.Fatalf("format sniff: %v %v", got, err)
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
		}
	})
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
