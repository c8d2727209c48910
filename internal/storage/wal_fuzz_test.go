package storage

import (
	"math"
	"testing"

	"flat/internal/geom"
)

// FuzzWALRecordRoundTrip drives the WAL record codec with arbitrary
// field values (including NaN/Inf box coordinates, which must
// round-trip bit-exactly) and with arbitrary truncations of the
// encoding, which must decode to an error — never a wrong record, never
// a panic. This is the property the torn-tail replay rests on.
func FuzzWALRecordRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint64(42), 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 12)
	f.Add(uint8(2), uint64(1<<63), ^uint64(0), -1e300, math.Inf(-1), math.NaN(), 1e300, math.Inf(1), -0.0, 3)
	f.Add(uint8(7), uint64(0), uint64(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
	f.Fuzz(func(t *testing.T, op uint8, seq, id uint64, x1, y1, z1, x2, y2, z2 float64, cut int) {
		rec := WALRecord{
			// Only valid ops are encodable records; arbitrary op bytes are
			// exercised through the mutation pass below.
			Op:  WALOp(op%2 + 1),
			Seq: seq,
			ID:  id,
			Box: geom.MBR{Min: geom.V(x1, y1, z1), Max: geom.V(x2, y2, z2)},
		}
		buf := encodeWALRecord(nil, rec)
		got, n, err := decodeWALRecord(buf)
		if err != nil {
			t.Fatalf("decode of a fresh encoding failed: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		// Compare coordinates bitwise: NaN boxes must survive the trip too.
		same := got.Op == rec.Op && got.Seq == rec.Seq && got.ID == rec.ID
		want := [6]float64{rec.Box.Min.X, rec.Box.Min.Y, rec.Box.Min.Z, rec.Box.Max.X, rec.Box.Max.Y, rec.Box.Max.Z}
		have := [6]float64{got.Box.Min.X, got.Box.Min.Y, got.Box.Min.Z, got.Box.Max.X, got.Box.Max.Y, got.Box.Max.Z}
		for i := range want {
			same = same && math.Float64bits(want[i]) == math.Float64bits(have[i])
		}
		if !same {
			t.Fatalf("round trip mismatch: got %+v, want %+v", got, rec)
		}

		// A truncation anywhere inside the record is a torn tail: decode
		// must reject it (no partial record may replay).
		if cut < 0 {
			cut = -cut
		}
		cut %= len(buf)
		if _, _, err := decodeWALRecord(buf[:cut]); err == nil {
			t.Fatalf("decode accepted a %d-byte truncation of a %d-byte record", cut, len(buf))
		}

		// A flipped payload byte must fail the checksum.
		mut := append([]byte(nil), buf...)
		mut[walHeaderSize+int(seq%walPayloadSize)] ^= 1 << (id % 8)
		if r, _, err := decodeWALRecord(mut); err == nil {
			// The only acceptable "success" is the flip landing back on the
			// same bits (impossible here: XOR with a non-zero mask).
			t.Fatalf("decode accepted a corrupted record: %+v", r)
		}
	})
}
