package hilbert

import (
	"math/rand"
	"testing"

	"flat/internal/geom"
)

// encode3Skilling is Encode3 as Skilling wrote it, bit by bit: the
// transposed index of the coordinates, interleaved. It is the reference
// the level table is checked against.
func encode3Skilling(x, y, z uint32) uint64 {
	X := [3]uint32{x & (maxCoord - 1), y & (maxCoord - 1), z & (maxCoord - 1)}
	axesToTranspose(&X)
	return interleave(X)
}

// axesToTranspose converts spatial coordinates into the "transposed"
// Hilbert index representation in place (Skilling's AxestoTranspose).
func axesToTranspose(X *[3]uint32) {
	const n = 3
	M := uint32(1) << (Bits - 1)
	// Inverse undo.
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < n; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P // invert
			} else { // exchange
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		X[i] ^= X[i-1]
	}
	t := uint32(0)
	for Q := M; Q > 1; Q >>= 1 {
		if X[n-1]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := 0; i < n; i++ {
		X[i] ^= t
	}
}

// interleave packs the transposed representation into a single key: the
// most significant bit of the key is bit Bits-1 of X[0], then bit Bits-1
// of X[1], and so on.
func interleave(X [3]uint32) uint64 {
	var d uint64
	for b := Bits - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			d = d<<1 | uint64((X[i]>>uint(b))&1)
		}
	}
	return d
}

// decode3 is the inverse of Encode3: it maps a curve position back to
// quantized coordinates. Nothing outside the tests walks the curve
// backwards; it is the round-trip reference Encode3 is checked against.
func decode3(d uint64) (x, y, z uint32) {
	X := deinterleave(d)
	transposeToAxes(&X)
	return X[0], X[1], X[2]
}

// transposeToAxes is the inverse of axesToTranspose (Skilling's
// TransposetoAxes).
func transposeToAxes(X *[3]uint32) {
	const n = 3
	N := uint32(2) << (Bits - 1)
	// Gray decode by H ^ (H/2).
	t := X[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for Q := uint32(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := n - 1; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
}

// deinterleave is the inverse of interleave.
func deinterleave(d uint64) [3]uint32 {
	var X [3]uint32
	pos := uint(3*Bits - 1)
	for b := Bits - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			X[i] |= uint32((d>>pos)&1) << uint(b)
			pos--
		}
	}
	return X
}

// TestEncode3MatchesSkilling checks the level table against the
// bit-serial transform: on every cell of the 2^7-per-axis grid placed in
// the top bits (so every state the top seven levels reach meets every
// octant), on random 21-bit triples, and on every mix of the boundary
// coordinates 0 and 2^21-1.
func TestEncode3MatchesSkilling(t *testing.T) {
	check := func(x, y, z uint32) {
		if got, want := Encode3(x, y, z), encode3Skilling(x, y, z); got != want {
			t.Fatalf("Encode3(%d, %d, %d) = %#x, Skilling's transform gives %#x", x, y, z, got, want)
		}
	}
	const shift = Bits - 7
	for x := uint32(0); x < 1<<7; x++ {
		for y := uint32(0); y < 1<<7; y++ {
			for z := uint32(0); z < 1<<7; z++ {
				check(x<<shift, y<<shift, z<<shift)
			}
		}
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 1<<20; i++ {
		check(r.Uint32()&(maxCoord-1), r.Uint32()&(maxCoord-1), r.Uint32()&(maxCoord-1))
	}
	for _, x := range []uint32{0, maxCoord - 1} {
		for _, y := range []uint32{0, maxCoord - 1} {
			for _, z := range []uint32{0, maxCoord - 1} {
				check(x, y, z)
			}
		}
	}
}

func TestEncodeDecodeRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 10000; i++ {
		x := r.Uint32() & (maxCoord - 1)
		y := r.Uint32() & (maxCoord - 1)
		z := r.Uint32() & (maxCoord - 1)
		d := Encode3(x, y, z)
		gx, gy, gz := decode3(d)
		if gx != x || gy != y || gz != z {
			t.Fatalf("roundtrip (%d,%d,%d) -> %d -> (%d,%d,%d)", x, y, z, d, gx, gy, gz)
		}
	}
}

// hilbertStep encodes (x,y,z) on a small 3-bit-per-dim curve by rescaling
// coordinates into the high bits, so we can exhaustively check curve
// properties on an 8x8x8 grid.
func smallKey(x, y, z uint32) uint64 {
	const shift = Bits - 3
	return Encode3(x<<shift, y<<shift, z<<shift)
}

// TestCurveIsBijectiveOnGrid checks that on an 8^3 grid (using the top 3
// bits of each dimension) all cells receive distinct, dense keys.
func TestCurveIsBijectiveOnGrid(t *testing.T) {
	seen := make(map[uint64][3]uint32, 512)
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				d := smallKey(x, y, z)
				if prev, dup := seen[d]; dup {
					t.Fatalf("key collision: (%d,%d,%d) and %v -> %d", x, y, z, prev, d)
				}
				seen[d] = [3]uint32{x, y, z}
			}
		}
	}
	if len(seen) != 512 {
		t.Fatalf("expected 512 distinct keys, got %d", len(seen))
	}
}

// TestCurveAdjacency verifies the defining Hilbert property: consecutive
// positions along the curve are adjacent grid cells (unit Manhattan
// distance). We walk the full 8^3 curve via decode3 on rescaled keys.
func TestCurveAdjacency(t *testing.T) {
	const shift = Bits - 3
	// Collect the 512 cells in curve order by sorting via key map.
	order := make([][3]uint32, 512)
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				d := smallKey(x, y, z)
				// The top 9 bits of the 63-bit key enumerate the coarse curve.
				idx := d >> uint(3*shift)
				if idx >= 512 {
					t.Fatalf("coarse index %d out of range", idx)
				}
				order[idx] = [3]uint32{x, y, z}
			}
		}
	}
	for i := 1; i < 512; i++ {
		a, b := order[i-1], order[i]
		dist := manhattan(a, b)
		if dist != 1 {
			t.Fatalf("cells %v and %v at positions %d,%d have distance %d", a, b, i-1, i, dist)
		}
	}
}

func manhattan(a, b [3]uint32) uint32 {
	var d uint32
	for i := 0; i < 3; i++ {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

func TestEncodeMasksOutOfRange(t *testing.T) {
	// Coordinates beyond Bits bits are masked, not panicking.
	d1 := Encode3(maxCoord, 0, 0) // == Encode3(0,0,0) after masking
	d2 := Encode3(0, 0, 0)
	if d1 != d2 {
		t.Errorf("masking failed: %d != %d", d1, d2)
	}
}

func TestQuantizerClamps(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))
	q := NewQuantizer(world)
	x, y, z := q.Cell(geom.V(-5, 11, 5))
	if x != 0 {
		t.Errorf("below-range x = %d, want 0", x)
	}
	if y != maxCoord-1 {
		t.Errorf("above-range y = %d, want %d", y, maxCoord-1)
	}
	if z != maxCoord/2 {
		t.Errorf("mid z = %d, want %d", z, maxCoord/2)
	}
}

func TestQuantizerDegenerateAxis(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(10, 0, 10)) // flat in y
	q := NewQuantizer(world)
	_, y, _ := q.Cell(geom.V(5, 123, 5))
	if y != 0 {
		t.Errorf("degenerate axis cell = %d, want 0", y)
	}
}

// TestQuantizerLocality: nearby points receive nearby keys more often
// than far-apart points — a statistical sanity check of the curve's
// locality preservation, which is the entire reason the Hilbert R-tree
// uses it.
func TestQuantizerLocality(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100))
	q := NewQuantizer(world)
	r := rand.New(rand.NewSource(17))
	var sumNear, sumFar float64
	const n = 2000
	for i := 0; i < n; i++ {
		p := geom.V(r.Float64()*90+5, r.Float64()*90+5, r.Float64()*90+5)
		near := p.Add(geom.V(0.1, 0.1, 0.1))
		far := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		kp, kn, kf := q.Key(p), q.Key(near), q.Key(far)
		sumNear += absDiff(kp, kn)
		sumFar += absDiff(kp, kf)
	}
	if sumNear >= sumFar/4 {
		t.Errorf("locality too weak: near avg %g vs far avg %g", sumNear/n, sumFar/n)
	}
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}

func TestKeyOfMBR(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))
	q := NewQuantizer(world)
	m := geom.Box(geom.V(2, 2, 2), geom.V(4, 4, 4))
	if q.KeyOfMBR(m) != q.Key(geom.V(3, 3, 3)) {
		t.Error("KeyOfMBR should hash the center")
	}
}

func BenchmarkEncode3(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]uint32, 1024)
	for i := range xs {
		xs[i] = r.Uint32() & (maxCoord - 1)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Encode3(xs[i%1024], xs[(i+1)%1024], xs[(i+2)%1024])
	}
	_ = sink
}
