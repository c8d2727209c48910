package storage

import (
	"math"
	"math/rand"
	"testing"

	"flat/internal/geom"
)

func TestPageWriterReaderRoundTrip(t *testing.T) {
	buf := make([]byte, PageSize)
	w := NewPageWriter(buf)
	w.PutU8(7)
	w.PutU16(65535)
	w.PutU32(4000000000)
	w.PutU64(1 << 62)
	w.PutF64(-3.25)
	m := geom.Box(geom.V(-1, 2, -3), geom.V(4, 5, 6))
	w.PutMBR(m)
	if w.Overflow() {
		t.Fatal("unexpected overflow")
	}
	wantOff := 1 + 2 + 4 + 8 + 8 + MBRSize
	if w.Offset() != wantOff {
		t.Fatalf("offset = %d, want %d", w.Offset(), wantOff)
	}

	r := NewPageReader(buf)
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U16(); got != 65535 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U32(); got != 4000000000 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<62 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.F64(); got != -3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.MBR(); got != m {
		t.Errorf("MBR = %v, want %v", got, m)
	}
	if r.Offset() != wantOff {
		t.Errorf("reader offset = %d, want %d", r.Offset(), wantOff)
	}
}

func TestPageWriterOverflow(t *testing.T) {
	buf := make([]byte, PageSize)
	w := NewPageWriter(buf)
	for i := 0; i < PageSize/8; i++ {
		w.PutU64(uint64(i))
	}
	if w.Overflow() {
		t.Fatal("filling exactly should not overflow")
	}
	w.PutU8(1)
	if !w.Overflow() {
		t.Error("write past end did not set overflow")
	}
}

func TestPageWriterSeek(t *testing.T) {
	buf := make([]byte, PageSize)
	w := NewPageWriter(buf)
	w.Seek(100)
	w.PutU32(0xdeadbeef)
	r := NewPageReader(buf)
	r.Seek(100)
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("seeked value = %x", got)
	}
	w.Seek(-1)
	if !w.Overflow() {
		t.Error("negative seek should set overflow")
	}
}

func TestMBRCodecRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	buf := make([]byte, PageSize)
	for i := 0; i < 200; i++ {
		m := geom.Box(
			geom.V(r.NormFloat64()*1e6, r.NormFloat64()*1e6, r.NormFloat64()*1e6),
			geom.V(r.NormFloat64()*1e6, r.NormFloat64()*1e6, r.NormFloat64()*1e6),
		)
		w := NewPageWriter(buf)
		w.PutMBR(m)
		got := NewPageReader(buf).MBR()
		if got != m {
			t.Fatalf("roundtrip mismatch: %v != %v", got, m)
		}
	}
}

// TestFloorCellMatchesFloor holds floorCell, which truncates, to the
// math.Floor rule the quantizer used before it: floor(d), 0 below 1 and
// for NaN, maxCellF from there up — at the edges of each case and on
// random quotients over the whole cell range.
func TestFloorCellMatchesFloor(t *testing.T) {
	want := func(d float64) uint32 {
		c := math.Floor(d)
		if !(c > 0) {
			return 0
		}
		return uint32(min(c, maxCellF))
	}
	ds := []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 5e-324, 0.5,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 2.5, 1 << 31,
		math.Nextafter(maxCellF, 0), maxCellF, math.Nextafter(maxCellF, math.Inf(1)),
		maxCellF + 0.5, maxCellF + 1, 1 << 40, math.MaxFloat64, math.Inf(1)}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		ds = append(ds, r.Float64()*maxCellF*1.01, float64(r.Uint32())+r.Float64())
	}
	for _, d := range ds {
		if got := floorCell(d); got != want(d) {
			t.Fatalf("floorCell(%v) = %d, math.Floor gives %d", d, got, want(d))
		}
	}
}
