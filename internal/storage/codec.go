package storage

import (
	"encoding/binary"
	"math"

	"flat/internal/geom"
)

// PageWriter is a bounds-checked cursor for serializing structures into a
// 4 KiB page buffer. All values are little-endian. Overflowing the page is
// a programming error and reported via Overflow rather than a panic so
// that packing loops can probe "does one more record fit?".
type PageWriter struct {
	buf      []byte
	off      int
	overflow bool
}

// NewPageWriter wraps buf (which must be at least PageSize long) and
// starts writing at offset 0.
func NewPageWriter(buf []byte) *PageWriter {
	return &PageWriter{buf: buf[:PageSize]}
}

// Offset returns the current write offset.
func (w *PageWriter) Offset() int { return w.off }

// Seek moves the cursor to off.
func (w *PageWriter) Seek(off int) {
	if off < 0 || off > PageSize {
		w.overflow = true
		return
	}
	w.off = off
}

// Overflow reports whether any write ran past the end of the page.
func (w *PageWriter) Overflow() bool { return w.overflow }

func (w *PageWriter) need(n int) bool {
	if w.off+n > PageSize {
		w.overflow = true
		return false
	}
	return true
}

// PutU8 writes one byte.
func (w *PageWriter) PutU8(v uint8) {
	if !w.need(1) {
		return
	}
	w.buf[w.off] = v
	w.off++
}

// PutU16 writes a little-endian uint16.
func (w *PageWriter) PutU16(v uint16) {
	if !w.need(2) {
		return
	}
	binary.LittleEndian.PutUint16(w.buf[w.off:], v)
	w.off += 2
}

// PutU32 writes a little-endian uint32.
func (w *PageWriter) PutU32(v uint32) {
	if !w.need(4) {
		return
	}
	binary.LittleEndian.PutUint32(w.buf[w.off:], v)
	w.off += 4
}

// PutU64 writes a little-endian uint64.
func (w *PageWriter) PutU64(v uint64) {
	if !w.need(8) {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[w.off:], v)
	w.off += 8
}

// PutUintN writes the low n (1..8) bytes of v, little-endian.
func (w *PageWriter) PutUintN(v uint64, n int) {
	if !w.need(n) {
		return
	}
	for i := 0; i < n; i++ {
		w.buf[w.off+i] = byte(v >> (8 * i))
	}
	w.off += n
}

// PutF64 writes a little-endian IEEE-754 float64.
func (w *PageWriter) PutF64(v float64) { w.PutU64(math.Float64bits(v)) }

// PutMBR writes the six coordinates of an MBR (48 bytes).
func (w *PageWriter) PutMBR(m geom.MBR) {
	w.PutF64(m.Min.X)
	w.PutF64(m.Min.Y)
	w.PutF64(m.Min.Z)
	w.PutF64(m.Max.X)
	w.PutF64(m.Max.Y)
	w.PutF64(m.Max.Z)
}

// PageReader is the decoding counterpart of PageWriter.
type PageReader struct {
	buf []byte
	off int
}

// NewPageReader wraps buf (at least PageSize long) for decoding.
func NewPageReader(buf []byte) *PageReader {
	return &PageReader{buf: buf[:PageSize]}
}

// Offset returns the current read offset.
func (r *PageReader) Offset() int { return r.off }

// Seek moves the cursor to off.
func (r *PageReader) Seek(off int) { r.off = off }

// U8 reads one byte.
func (r *PageReader) U8() uint8 {
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *PageReader) U16() uint16 {
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *PageReader) U32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *PageReader) U64() uint64 {
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// UintN reads an n-byte (1..8) little-endian unsigned integer with one
// 8-byte load masked to n bytes, so 8 bytes must remain on the page.
func (r *PageReader) UintN(n int) uint64 {
	v := binary.LittleEndian.Uint64(r.buf[r.off:]) & (^uint64(0) >> (64 - 8*n))
	r.off += n
	return v
}

// F64 reads a little-endian IEEE-754 float64.
func (r *PageReader) F64() float64 { return math.Float64frombits(r.U64()) }

// MBR reads six coordinates written by PutMBR.
func (r *PageReader) MBR() geom.MBR {
	var m geom.MBR
	m.Min.X = r.F64()
	m.Min.Y = r.F64()
	m.Min.Z = r.F64()
	m.Max.X = r.F64()
	m.Max.Y = r.F64()
	m.Max.Z = r.F64()
	return m
}

// MBRSize is the encoded size of an MBR in bytes.
const MBRSize = 48

// ElementSize is the encoded size of one spatial element on an object or
// leaf page: a 48-byte MBR plus an 8-byte element id. (The paper packs 85
// bare 48-byte MBRs per page; we additionally store the element id the
// text describes as the "primary key", giving 73 entries per 4 KiB page
// after the header.)
const ElementSize = MBRSize + 8
