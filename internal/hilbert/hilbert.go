// Package hilbert implements the 3D Hilbert space-filling curve used by
// the Hilbert R-tree baseline (Kamel & Faloutsos, VLDB'94): each element
// is assigned the Hilbert value of its MBR center, the data set is sorted
// once on this value, and consecutive elements are packed onto the same
// page.
//
// The encoding follows John Skilling's transpose algorithm ("Programming
// the Hilbert curve", AIP 2004), specialized to three dimensions with
// Bits bits of precision per dimension, yielding a 63-bit key that fits a
// uint64.
package hilbert

// Bits is the precision per dimension. 3*Bits = 63 bits of key.
const Bits = 21

// maxCoord is the exclusive upper bound of quantized coordinates.
const maxCoord = uint32(1) << Bits

// Encode3 maps quantized coordinates (each < 2^Bits) to their position
// along the 3D Hilbert curve.
func Encode3(x, y, z uint32) uint64 {
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
