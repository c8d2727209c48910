// Package hilbert implements the 3D Hilbert space-filling curve used by
// the Hilbert R-tree baseline (Kamel & Faloutsos, VLDB'94): each element
// is assigned the Hilbert value of its MBR center, the data set is sorted
// once on this value, and consecutive elements are packed onto the same
// page.
//
// The encoding is John Skilling's transpose algorithm ("Programming the
// Hilbert curve", AIP 2004), specialized to three dimensions with Bits
// bits of precision per dimension, yielding a 63-bit key that fits a
// uint64 — but run one curve level per table lookup instead of bit by
// bit. Skilling's inverse-undo step, at each level from the top, either
// inverts the lower bits of the first axis or exchanges them with
// another axis's, so what the levels above did to the bits below is an
// axis permutation and a flip mask; and his excess-work step inverts
// every bit below each level whose Gray-coded last axis is set, which is
// a parity bit. Those three make a state (6 permutations × 8 masks × 2
// parities = 96 states, 48 of them reachable from the top level's), and
// one level of the curve maps a state and an octant — the level's bit of
// each coordinate — to 3 key bits and the next state. levelTable holds
// that map, derived at init by running the three steps on the state
// symbolically; the tests check it against the bit-serial transform on
// every cell of a 2^21-cell grid and on a million random cells, which
// between them use every reachable entry.
package hilbert

// Bits is the precision per dimension. 3*Bits = 63 bits of key.
const Bits = 21

// maxCoord is the exclusive upper bound of quantized coordinates.
const maxCoord = uint32(1) << Bits

// Encode3 maps quantized coordinates (each < 2^Bits; higher bits are
// ignored) to their position along the 3D Hilbert curve.
func Encode3(x, y, z uint32) uint64 { return Prefix3(x, y, z, Bits) }

// Prefix3 returns the top 3·levels bits of Encode3(x, y, z), for levels
// in [0, Bits]: the position along the curve of the cell, 2^(Bits−levels)
// coordinates a side, that holds the point. It reads only the top levels
// bits of each coordinate, one table lookup a level, so it costs
// levels/Bits of a full key.
func Prefix3(x, y, z uint32, levels int) uint64 {
	var d uint64
	row := uint16(0) // the state's first entry: state << 3
	for b := Bits - 1; b >= Bits-levels; b-- {
		e := levelTable[row|uint16((x>>b&1)<<2|(y>>b&1)<<1|z>>b&1)]
		d = d<<3 | uint64(e&7)
		row = e &^ 7
	}
	return d
}

// levelTable is one curve level: entry state<<3 | octant (x's bit in
// bit 2, z's in bit 0) holds next<<3 | digit, the 3 key bits the level
// emits and the state the next level starts in. State 0 is the top
// level's.
var levelTable = buildLevelTable()

// levelState is what the levels above one level did to its bits and the
// bits below: working axis i holds original axis perm[i], inverted where
// flip's bit i is set, and the excess-work step inverts every bit of the
// level when parity is 1.
type levelState struct {
	perm   [3]uint8
	flip   uint8
	parity uint8
}

// perms lists the axis permutations, the identity first.
var perms = [6][3]uint8{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

func (st levelState) index() uint16 {
	p := 0
	for p < len(perms) && perms[p] != st.perm {
		p++
	}
	return uint16((p*8+int(st.flip))*2 + int(st.parity))
}

func buildLevelTable() [96 * 8]uint16 {
	var table [96 * 8]uint16
	for _, perm := range perms {
		for flip := uint8(0); flip < 8; flip++ {
			for parity := uint8(0); parity < 2; parity++ {
				st := levelState{perm, flip, parity}
				for o := uint8(0); o < 8; o++ {
					next, digit := st.step(o)
					table[st.index()<<3|uint16(o)] = next.index()<<3 | uint16(digit)
				}
			}
		}
	}
	return table
}

// step runs Skilling's three steps on one level whose coordinate bits
// are the octant o: the inverse undo, which reads the level's working
// bits and acts on the bits below; the Gray encode; and the excess work,
// whose flip of the bits below is the parity of the Gray-coded last axis
// over the levels above.
func (st levelState) step(o uint8) (next levelState, digit uint8) {
	var w [3]uint8
	for i, a := range st.perm {
		w[i] = o>>(2-a)&1 ^ st.flip>>i&1
	}
	next = st
	for i := range w {
		if w[i] == 1 {
			next.flip ^= 1 // invert X[0] below
			continue
		}
		// exchange X[0] and X[i] below
		next.perm[0], next.perm[i] = next.perm[i], next.perm[0]
		f0, fi := next.flip&1, next.flip>>i&1
		next.flip = next.flip&^(1|1<<i) | fi | f0<<i
	}
	g0 := w[0]
	g1 := w[1] ^ g0
	g2 := w[2] ^ g1
	p := st.parity
	next.parity = p ^ g2
	return next, (g0^p)<<2 | (g1^p)<<1 | (g2 ^ p)
}
