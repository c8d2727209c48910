package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"flat/internal/geom"
)

// Object-page codec. An object page stores the spatial elements of one
// FLAT partition. Two on-disk layouts exist, selected per index at build
// time and recorded in the superblock (and, for sharded indexes, per
// shard in the manifest):
//
// Format v1 — full-precision, the original layout, byte-identical to an
// R-tree leaf node so v1 indexes keep opening unchanged:
//
//	[kind=1 u8][pad u8][count u16]  (4 bytes)
//	count × { MBR 6×f64 (48 bytes) | id u64 }  (56 bytes each)
//
// Format v2 — quantized delta encoding. The page stores one exact
// float64 reference MBR (the union of its elements) and each element as
// six uint32 cell coordinates relative to it, in the spirit of
// internal/hilbert's world-box→cell Quantizer but anchored per page.
// Ids are stored as a frame of reference: the flags byte holds w, the
// byte width of the page's id span (max − min), and the header carries
// the page's minimum id as a base that each element's w-byte offset is
// added to:
//
//	[kind=3 u8][flags=w u8][count u16][reference MBR 6×f64][base id u64]  (60 bytes)
//	count × { min cells 3×u32 | max-distance cells 3×u32 | id − base, w bytes }  (24+w bytes each)
//
// flags 0 is the original layout, still written when the span needs all
// 8 bytes: no base field and full u64 ids (a 52-byte header and 32-byte
// elements, base 0). Flags 1..7 give the width; larger values are
// invalid. A page of width w holds (4096 − 60) / (24 + w) elements —
// 161 at w = 1, 149 at w = 3, 130 at w = 7 — and a flags-0 page
// (4096 − 52) / 32 = 126, the capacity for arbitrary ids.
//
// Each axis is divided into 2^32 steps of the reference extent. Min
// coordinates round down (cell c decodes to ref.Min + c·step), max
// coordinates round up by storing the distance from the top (cell d
// decodes to ref.Max − d·step), and the encoder re-runs the decode
// expression and nudges the cell until the decoded box provably contains
// the original. Decoded boxes therefore always contain the element's
// true box (conservative: queries never miss a result) and always lie
// inside the reference MBR. At 2^32 steps the slack per axis is about
// 2^-32 of the page extent — roughly 1e-10 of typical partition sizes —
// so false positives from the widened boxes are not observed on the
// benchmark workloads; see the README's on-disk format section.
//
// Range queries filter a v2 page on its stored cells
// (FilterObjectPageInto). Per page and axis they compute the largest
// min cell whose decoded coordinate is ≤ the query's max and the
// largest max-distance cell whose decoded coordinate is ≥ the query's
// min. Decoding is monotone in the cell, so comparing an element's six
// cells with those limits keeps exactly the elements whose decoded
// boxes intersect the query, and only those are decoded.
//
// Kind bytes 0 and 1 are the R-tree internal/leaf node kinds; 2 and 3
// are FLAT's metadata page kinds (internal/core). A kind byte names a
// layout within one page role, not the role: a page's role follows from
// the superblock's page runs, and each decoder is only handed pages of
// its own role.

// PageFormat selects the on-disk object-page layout of an index.
type PageFormat uint8

// Object page formats. The zero value is "unspecified" and resolves to
// DefaultPageFormat wherever a format is chosen.
const (
	PageFormatV1 PageFormat = 1 // full float64 MBRs, R-tree leaf layout
	PageFormatV2 PageFormat = 2 // per-page reference MBR + quantized u32 cells
)

// DefaultPageFormat is the layout used when the caller does not choose
// one. It stays v1 so that byte-identity with pre-v2 builds is the
// default; v2 is opt-in per build.
const DefaultPageFormat = PageFormatV1

// Valid reports whether f names a known object-page format.
func (f PageFormat) Valid() bool { return f == PageFormatV1 || f == PageFormatV2 }

// String implements fmt.Stringer.
func (f PageFormat) String() string {
	switch f {
	case PageFormatV1:
		return "v1"
	case PageFormatV2:
		return "v2"
	default:
		return fmt.Sprintf("pageformat(%d)", uint8(f))
	}
}

// On-page kind bytes of object pages. 0 (R-tree internal) and 1 (R-tree
// leaf) are fixed by internal/rtree.
const (
	objectKindV1 = 1 // shared with the R-tree leaf layout
	objectKindV2 = 3
)

// Layout constants.
const (
	objectHeaderV1 = 4 // kind, pad, count
	objectElemV1   = ElementSize

	objectHeaderV2 = 4 + MBRSize // kind, flags, count, reference MBR
	objectCellsV2  = 6 * 4       // six u32 cells, before the id
	idBaseSize     = 8           // the u64 base id of a flags 1..7 page

	// ObjectPageCapacityV1 is 73 elements per 4 KiB page (matching
	// rtree.NodeCapacity); ObjectPageCapacityV2 is 126, the capacity of
	// a v2 page whose ids need all 8 bytes.
	ObjectPageCapacityV1 = (PageSize - objectHeaderV1) / objectElemV1
	ObjectPageCapacityV2 = (PageSize - objectHeaderV2) / (objectCellsV2 + 8)
)

// ObjectPageCapacity returns how many elements one object page holds
// under format f whatever their ids: 73 for v1, 126 for v2. The encoder
// accepts that many elements with any ids; ObjectPageCapacityForSpan
// gives the larger v2 capacity of ids that lie close together.
func ObjectPageCapacity(f PageFormat) int {
	if f == PageFormatV2 {
		return ObjectPageCapacityV2
	}
	return ObjectPageCapacityV1
}

// ObjectPageCapacityForSpan returns the most elements one object page
// of format f holds when its ids differ by at most span (max − min id):
// 149 for v2 at a span below 2^24, down to 126 when the span needs all
// 8 bytes. v1 stores full ids and always holds 73.
func ObjectPageCapacityForSpan(f PageFormat, span uint64) int {
	if f != PageFormatV2 {
		return ObjectPageCapacity(f)
	}
	return v2Capacity(idWidth(span))
}

// idWidth returns the bytes a v2 page spends per id when its ids span
// span: 1 to 8. The flags byte holds the width, with 8 written as 0.
func idWidth(span uint64) int { return max(1, (bits.Len64(span)+7)/8) }

// v2Capacity returns how many elements a v2 page with w-byte ids holds.
// Counting the base field at every width is exact: a flags-0 page,
// which has none, holds 126 either way. Every width leaves at least
// 8 − w bytes after a full page's last id, so its offset decodes with
// one 8-byte load (TestObjectPageV2FullPageEveryWidth).
func v2Capacity(w int) int {
	return (PageSize - objectHeaderV2 - idBaseSize) / (objectCellsV2 + w)
}

// quantLevels is the number of quantization steps per axis: u32 cells,
// like internal/hilbert's Quantizer grid.
const quantLevels = float64(1 << 32)

const maxCellF = float64(math.MaxUint32)

// Quantizer maps coordinates to conservative u32 cells against a
// reference box: the one rounding rule of the repository's quantized
// layouts. The v2 object-page codec quantizes each element against its
// page's reference MBR, and FLAT's metadata records (internal/core)
// quantize page and partition MBRs against the index world. A Quantizer is built identically from the stored reference box
// at encode and decode time, so both sides compute the same step in the
// same float64 operations.
type Quantizer struct {
	min, max, step [3]float64
}

// NewQuantizer returns the quantizer of reference box ref.
func NewQuantizer(ref geom.MBR) Quantizer {
	var q Quantizer
	for a := 0; a < 3; a++ {
		q.min[a] = ref.Min.Axis(a)
		q.max[a] = ref.Max.Axis(a)
		step := (q.max[a] - q.min[a]) / quantLevels
		// A non-finite step (reference extent overflowing float64) or a
		// zero step (degenerate axis, or extent below ~2^-1042 where the
		// division underflows) disables quantization on the axis: every
		// cell is 0 and decodes to the exact reference bound.
		if math.IsInf(step, 0) || math.IsNaN(step) {
			step = 0
		}
		q.step[a] = step
	}
	return q
}

// cellMin returns a cell whose decoded coordinate is ≤ v (conservative
// rounding toward the reference min), as large as float arithmetic lets
// us verify. It is monotone in v.
func (q *Quantizer) cellMin(axis int, v float64) uint32 {
	step := q.step[axis]
	if step <= 0 {
		return 0
	}
	c := math.Floor((v - q.min[axis]) / step)
	if !(c > 0) { // also catches NaN
		return 0
	}
	if c > maxCellF {
		c = maxCellF
	}
	cell := uint32(c)
	for cell > 0 && q.DecodeMin(axis, cell) > v {
		cell--
	}
	return cell
}

// cellMax returns a cell (distance from the reference max) whose
// decoded coordinate is ≥ v. It is monotone (nonincreasing) in v.
func (q *Quantizer) cellMax(axis int, v float64) uint32 {
	step := q.step[axis]
	if step <= 0 {
		return 0
	}
	d := math.Floor((q.max[axis] - v) / step)
	if !(d > 0) {
		return 0
	}
	if d > maxCellF {
		d = maxCellF
	}
	cell := uint32(d)
	for cell > 0 && q.DecodeMax(axis, cell) < v {
		cell--
	}
	return cell
}

// DecodeMin returns the coordinate min cell cell stands for; it is
// nondecreasing in cell.
func (q *Quantizer) DecodeMin(axis int, cell uint32) float64 {
	if q.step[axis] <= 0 {
		return q.min[axis]
	}
	return q.min[axis] + float64(cell)*q.step[axis]
}

// DecodeMax returns the coordinate max-distance cell cell stands for;
// it is nonincreasing in cell.
func (q *Quantizer) DecodeMax(axis int, cell uint32) float64 {
	if q.step[axis] <= 0 {
		return q.max[axis]
	}
	return q.max[axis] - float64(cell)*q.step[axis]
}

// Cells returns box's six cells: the three min cells, then the three
// max-distance cells. Box decodes them to a box that contains box
// whenever box lies inside the reference box.
func (q *Quantizer) Cells(box geom.MBR) [6]uint32 {
	return [6]uint32{
		q.cellMin(0, box.Min.X), q.cellMin(1, box.Min.Y), q.cellMin(2, box.Min.Z),
		q.cellMax(0, box.Max.X), q.cellMax(1, box.Max.Y), q.cellMax(2, box.Max.Z),
	}
}

// Box decodes six cells in Cells' order.
func (q *Quantizer) Box(c [6]uint32) geom.MBR {
	return geom.MBR{
		Min: geom.V(q.DecodeMin(0, c[0]), q.DecodeMin(1, c[1]), q.DecodeMin(2, c[2])),
		Max: geom.V(q.DecodeMax(0, c[3]), q.DecodeMax(1, c[4]), q.DecodeMax(2, c[5])),
	}
}

// EncodeObjectPage serializes els into buf (at least PageSize long)
// under format f. It errors if els exceeds the format's capacity or, for
// v2, if an element box is inverted or non-finite (v2 needs a finite
// reference frame; v1 stores raw floats and accepts anything).
func EncodeObjectPage(buf []byte, f PageFormat, els []geom.Element) error {
	if f == 0 {
		f = DefaultPageFormat
	}
	switch f {
	case PageFormatV1:
		return encodeObjectPageV1(buf, els)
	case PageFormatV2:
		return encodeObjectPageV2(buf, els)
	default:
		return fmt.Errorf("storage: unknown object page format %d", uint8(f))
	}
}

func encodeObjectPageV1(buf []byte, els []geom.Element) error {
	if len(els) > ObjectPageCapacityV1 {
		return fmt.Errorf("storage: %d elements exceed v1 page capacity %d", len(els), ObjectPageCapacityV1)
	}
	w := NewPageWriter(buf)
	w.PutU8(objectKindV1)
	w.PutU8(0)
	w.PutU16(uint16(len(els)))
	for _, e := range els {
		w.PutMBR(e.Box)
		w.PutU64(e.ID)
	}
	if w.Overflow() {
		return fmt.Errorf("storage: v1 object page overflow")
	}
	return nil
}

func encodeObjectPageV2(buf []byte, els []geom.Element) error {
	ref := geom.EmptyMBR()
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range els {
		b := els[i].Box
		if !(b.Min.X <= b.Max.X && b.Min.Y <= b.Max.Y && b.Min.Z <= b.Max.Z) || !finiteMBR(b) {
			return fmt.Errorf("storage: v2 object page: element %d has inverted or non-finite box", i)
		}
		ref = ref.Union(b)
		lo, hi = min(lo, els[i].ID), max(hi, els[i].ID)
	}
	if len(els) == 0 {
		ref, lo = geom.MBR{}, 0
	}
	width := idWidth(hi - lo)
	if n := v2Capacity(width); len(els) > n {
		return fmt.Errorf("storage: %d elements exceed v2 page capacity %d", len(els), n)
	}
	if width == 8 {
		lo = 0 // flags 0: full ids, no base field
	}
	w := NewPageWriter(buf)
	w.PutU8(objectKindV2)
	w.PutU8(uint8(width % 8))
	w.PutU16(uint16(len(els)))
	w.PutMBR(ref)
	if width < 8 {
		w.PutU64(lo)
	}
	q := NewQuantizer(ref)
	for _, e := range els {
		for _, c := range q.Cells(e.Box) {
			w.PutU32(c)
		}
		w.PutUintN(e.ID-lo, width)
	}
	if w.Overflow() {
		return fmt.Errorf("storage: v2 object page overflow")
	}
	return nil
}

func finiteMBR(m geom.MBR) bool {
	for a := 0; a < 3; a++ {
		if math.IsInf(m.Min.Axis(a), 0) || math.IsInf(m.Max.Axis(a), 0) ||
			math.IsNaN(m.Min.Axis(a)) || math.IsNaN(m.Max.Axis(a)) {
			return false
		}
	}
	return true
}

// objectPageLayout validates an object page's header and returns its
// element count and its id width in bytes. It never reads past
// len(page).
func objectPageLayout(page []byte) (count, width int, err error) {
	if len(page) < objectHeaderV1 {
		return 0, 0, fmt.Errorf("storage: object page shorter than header")
	}
	count = int(binary.LittleEndian.Uint16(page[2:]))
	switch page[0] {
	case objectKindV1:
		if count > ObjectPageCapacityV1 {
			return 0, 0, fmt.Errorf("storage: object page count %d exceeds v1 capacity %d", count, ObjectPageCapacityV1)
		}
		return count, 8, nil
	case objectKindV2:
		width = int(page[1])
		switch {
		case width == 0:
			width = 8
		case width > 7:
			return 0, 0, fmt.Errorf("storage: v2 object page flags %d above 7", width)
		case len(page) < objectHeaderV2+idBaseSize:
			return 0, 0, fmt.Errorf("storage: v2 object page base id runs past the page")
		}
		if n := v2Capacity(width); count > n {
			return 0, 0, fmt.Errorf("storage: object page count %d exceeds v2 capacity %d at %d-byte ids", count, n, width)
		}
		return count, width, nil
	default:
		return 0, 0, fmt.Errorf("storage: byte 0x%02x is not an object page kind", page[0])
	}
}

// ObjectPageCount returns the number of elements stored on an encoded
// object page.
func ObjectPageCount(page []byte) (int, error) {
	count, _, err := objectPageLayout(page)
	return count, err
}

// DecodeObjectPageInto parses an object page of either format, appending
// elements to dst to avoid allocation in query loops.
func DecodeObjectPageInto(page []byte, dst []geom.Element) ([]geom.Element, error) {
	return decodeObjectPage(page, nil, dst)
}

// FilterObjectPageInto appends to dst exactly the elements
// DecodeObjectPageInto would return that intersect q, in page order.
// On a v2 page it tests the stored cells against per-page cell limits
// and decodes only the elements that pass; it allocates nothing beyond
// dst's growth.
func FilterObjectPageInto(page []byte, q geom.MBR, dst []geom.Element) ([]geom.Element, error) {
	return decodeObjectPage(page, &q, dst)
}

// decodeObjectPage is the one object-page decode loop: with q nil it
// keeps every element, otherwise only those whose decoded box
// intersects *q.
func decodeObjectPage(page []byte, q *geom.MBR, dst []geom.Element) ([]geom.Element, error) {
	if err := checkBuf(page, "decode object page"); err != nil {
		return dst, err
	}
	count, width, err := objectPageLayout(page)
	if err != nil {
		return dst, err
	}
	r := NewPageReader(page)
	r.Seek(objectHeaderV1)
	if page[0] == objectKindV1 {
		for i := 0; i < count; i++ {
			var e geom.Element
			e.Box = r.MBR()
			e.ID = r.U64()
			if q == nil || e.Box.Intersects(*q) {
				dst = append(dst, e)
			}
		}
		return dst, nil
	}
	quant := NewQuantizer(r.MBR())
	var base uint64 // 0 on a flags-0 page: its ids are stored whole
	if width < 8 {
		base = r.U64()
	}
	// Test each element's stored cells against the limits with one
	// branch: c − lim wraps to a set top bit exactly when c < lim, so
	// the AND of the six differences has it set when all six pass.
	lim := allCells
	if q != nil {
		lim = quant.CellLimits(*q)
	}
	idMask := ^uint64(0) >> (64 - 8*width)
	page = page[:PageSize]
	for i, off := 0, r.Offset(); i < count; i, off = i+1, off+objectCellsV2+width {
		c := page[off : off+objectCellsV2+8] // the cells and an 8-byte id load
		c0, c1, c2 := binary.LittleEndian.Uint32(c[0:]), binary.LittleEndian.Uint32(c[4:]), binary.LittleEndian.Uint32(c[8:])
		c3, c4, c5 := binary.LittleEndian.Uint32(c[12:]), binary.LittleEndian.Uint32(c[16:]), binary.LittleEndian.Uint32(c[20:])
		if (uint64(c0)-lim[0])&(uint64(c1)-lim[1])&(uint64(c2)-lim[2])&
			(uint64(c3)-lim[3])&(uint64(c4)-lim[4])&(uint64(c5)-lim[5])>>63 == 0 {
			continue
		}
		var e geom.Element
		e.Box.Min.X = quant.DecodeMin(0, c0)
		e.Box.Min.Y = quant.DecodeMin(1, c1)
		e.Box.Min.Z = quant.DecodeMin(2, c2)
		e.Box.Max.X = quant.DecodeMax(0, c3)
		e.Box.Max.Y = quant.DecodeMax(1, c4)
		e.Box.Max.Z = quant.DecodeMax(2, c5)
		e.ID = base + binary.LittleEndian.Uint64(c[objectCellsV2:])&idMask
		dst = append(dst, e)
	}
	return dst, nil
}

// allCells are the cell limits that keep every cell.
var allCells = [6]uint64{1 << 32, 1 << 32, 1 << 32, 1 << 32, 1 << 32, 1 << 32}

// CellLimits returns, in Cells' order, the limits below which a cell
// can decode to a box meeting query: per axis, the min cells whose
// DecodeMin is ≤ query's max and the max-distance cells whose DecodeMax
// is ≥ query's min. Decoding is monotone in the cell, so a cell meets
// its test exactly when it is below its limit (0: no cell does, 2^32:
// every cell does), and six cells all below their limits decode to a
// box that Intersects query.
func (q *Quantizer) CellLimits(query geom.MBR) [6]uint64 {
	var lim [6]uint64
	for a := 0; a < 3; a++ {
		lim[a] = q.cellLimit(a, false, query.Max.Axis(a))
		lim[3+a] = q.cellLimit(a, true, query.Min.Axis(a))
	}
	return lim
}

// cellLimit returns the number of cells c of axis that meet v —
// DecodeMin(axis, c) ≤ v, or DecodeMax(axis, c) ≥ v when isMax is set
// — which, by monotonicity, are the cells below it. It starts from the
// closed-form floor of the decode expression solved for c and corrects
// it by galloping then bisecting on the decode itself, so float
// rounding in the estimate never decides the answer: a correct
// estimate costs two decodes, a wrong one O(log error).
func (q *Quantizer) cellLimit(axis int, isMax bool, v float64) uint64 {
	const maxCell = int64(math.MaxUint32)
	meets := func(c int64) bool {
		if isMax {
			return q.DecodeMax(axis, uint32(c)) >= v
		}
		return q.DecodeMin(axis, uint32(c)) <= v
	}
	step := q.step[axis]
	if step <= 0 {
		// Every cell decodes to the reference bound itself.
		if meets(0) {
			return uint64(maxCell) + 1
		}
		return 0
	}
	est := (v - q.min[axis]) / step
	if isMax {
		est = (q.max[axis] - v) / step
	}
	// good is the largest cell known to meet v (-1: none), bad the
	// smallest known not to (maxCell+1: none).
	good, bad := int64(-1), maxCell+1
	switch {
	case !(est >= 0): // also NaN
	case est >= maxCellF:
		good = maxCell
	default:
		good = int64(est)
	}
	if good >= 0 && !meets(good) {
		bad = good
		for s := int64(1); ; s *= 2 {
			if good = bad - s; good < 0 {
				good = -1
				break
			}
			if meets(good) {
				break
			}
			bad = good
		}
	} else {
		for s := int64(1); ; s *= 2 {
			c := good + s
			if c > maxCell {
				break
			}
			if !meets(c) {
				bad = c
				break
			}
			good = c
		}
	}
	for bad-good > 1 {
		if mid := good + (bad-good)/2; meets(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return uint64(good + 1)
}
