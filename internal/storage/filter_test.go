package storage_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// checkFilter holds FilterObjectPageInto(page, q) to its reference —
// DecodeObjectPageInto, then Intersects — element by element, bit for
// bit and in order, errors included.
func checkFilter(t *testing.T, page []byte, q geom.MBR) {
	t.Helper()
	all, derr := storage.DecodeObjectPageInto(page, nil)
	got, ferr := storage.FilterObjectPageInto(page, q, nil)
	if (derr == nil) != (ferr == nil) {
		t.Fatalf("decode error %v, filter error %v", derr, ferr)
	}
	if derr != nil {
		return
	}
	var want []geom.Element
	for _, e := range all {
		if e.Box.Intersects(q) {
			want = append(want, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("query %v: filter kept %d of %d elements, decode+Intersects %d", q, len(got), len(all), len(want))
	}
	for i := range got {
		if !sameElement(got[i], want[i]) {
			t.Fatalf("query %v: result %d is %+v, want %+v", q, i, got[i], want[i])
		}
	}
}

func sameElement(a, b geom.Element) bool {
	if a.ID != b.ID {
		return false
	}
	for ax := 0; ax < 3; ax++ {
		if math.Float64bits(a.Box.Min.Axis(ax)) != math.Float64bits(b.Box.Min.Axis(ax)) ||
			math.Float64bits(a.Box.Max.Axis(ax)) != math.Float64bits(b.Box.Max.Axis(ax)) {
			return false
		}
	}
	return true
}

// snapQuery moves the faces of q that faces selects onto e's decoded
// box, two bits per face in the order min X, Y, Z, max X, Y, Z: 0
// keeps the face, 1, 2 and 3 put it one ulp below, exactly on and one
// ulp above the coordinate that decides whether e meets it — e's max
// for a min face, e's min for a max face.
func snapQuery(q geom.MBR, e geom.Element, faces uint16) geom.MBR {
	face := [6]*float64{&q.Min.X, &q.Min.Y, &q.Min.Z, &q.Max.X, &q.Max.Y, &q.Max.Z}
	bound := [6]float64{e.Box.Max.X, e.Box.Max.Y, e.Box.Max.Z, e.Box.Min.X, e.Box.Min.Y, e.Box.Min.Z}
	for f := range face {
		switch faces >> (2 * f) & 3 {
		case 1:
			*face[f] = math.Nextafter(bound[f], math.Inf(-1))
		case 2:
			*face[f] = bound[f]
		case 3:
			*face[f] = math.Nextafter(bound[f], math.Inf(1))
		}
	}
	return q
}

// Face patterns for snapQuery: every face one ulp below, on, or one ulp
// above its boundary.
const (
	facesBelow = 0b010101010101
	facesOn    = 0b101010101010
	facesAbove = 0b111111111111
)

// elementsFromBytes reads element material from fuzz bytes: 7 uint64
// words each (6 coordinates + id), boxes normalized with geom.Box and
// non-finite ones skipped (v2 refuses them), at most a v2 page's worth.
func elementsFromBytes(data []byte) []geom.Element {
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
			continue
		}
		els = append(els, geom.Element{ID: w[6], Box: box})
	}
	return els
}

// elementBytes is elementsFromBytes' inverse for seeds.
func elementBytes(els []geom.Element) []byte {
	var data []byte
	for _, e := range els {
		for _, v := range []float64{e.Box.Min.X, e.Box.Min.Y, e.Box.Min.Z, e.Box.Max.X, e.Box.Max.Y, e.Box.Max.Z} {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		data = binary.LittleEndian.AppendUint64(data, e.ID)
	}
	return data
}

// rawV2Page lays out a v2 page by hand, so a test can choose what the
// encoder never writes: a degenerate, overflowing or non-finite
// reference box and arbitrary cells, at id width flags (0: full ids).
func rawV2Page(flags byte, ref geom.MBR, cells [][6]uint32) []byte {
	page := make([]byte, storage.PageSize)
	w := storage.NewPageWriter(page)
	w.PutU8(objectKindV2)
	w.PutU8(flags)
	w.PutU16(uint16(len(cells)))
	w.PutMBR(ref)
	width := 8
	if flags != 0 {
		width = int(flags)
		w.PutU64(1000)
	}
	for i, c := range cells {
		for _, v := range c {
			w.PutU32(v)
		}
		w.PutUintN(uint64(i)*0x0101010101010101, width)
	}
	return page
}

// filterCells are cells at both ends of the range, beside the middle,
// and one step apart, so limits land between neighbors.
func filterCells() [][6]uint32 {
	vals := []uint32{0, 1, 2, 1 << 31, 1<<31 + 1, math.MaxUint32 - 1, math.MaxUint32}
	cells := make([][6]uint32, 0, len(vals)*len(vals))
	for i, lo := range vals {
		for j, hi := range vals {
			cells = append(cells, [6]uint32{lo, vals[(i+1)%len(vals)], lo, hi, hi, vals[(j+2)%len(vals)]})
		}
	}
	return cells
}

// filterRefs are reference boxes with a quantized axis, a degenerate
// one (step 0), one whose extent overflows float64 (step 0), one far
// from the origin (many cells decode alike), and non-finite ones.
func filterRefs() []geom.MBR {
	inf, nan := math.Inf(1), math.NaN()
	return []geom.MBR{
		geom.Box(geom.V(-3, 0.25, 1e-3), geom.V(7.5, 0.25, 2e-3)),
		geom.Box(geom.V(-1.5e308, 1e6, -1), geom.V(1.5e308, 1e6+1e-3, 1)),
		{Min: geom.V(nan, -inf, 0), Max: geom.V(1, inf, nan)},
	}
}

// filterQueries are query boxes to try against any page: the whole
// space, NaN, infinite and inverted faces, and a point.
func filterQueries() []geom.MBR {
	inf, nan := math.Inf(1), math.NaN()
	return []geom.MBR{
		{Min: geom.V(-inf, -inf, -inf), Max: geom.V(inf, inf, inf)},
		{Min: geom.V(nan, 0, 0), Max: geom.V(1, 1, 1)},
		{Min: geom.V(0, 0, 0), Max: geom.V(1, nan, 1)},
		{Min: geom.V(inf, -inf, -inf), Max: geom.V(inf, inf, inf)},
		{Min: geom.V(-inf, -inf, -inf), Max: geom.V(-inf, inf, inf)},
		{Min: geom.V(5, 5, 5), Max: geom.V(-5, -5, -5)},
		geom.PointBox(geom.V(0.25, 0.25, 1.5e-3)),
	}
}

// TestFilterObjectPageMatchesDecode sweeps encoded v1 and v2 pages and
// hand-laid v2 pages at every id width against queries snapped onto
// their elements' decoded faces and the fixed hostile queries.
func TestFilterObjectPageMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var pages [][]byte
	for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
		for _, n := range []int{0, 1, 40, storage.ObjectPageCapacity(format)} {
			page := make([]byte, storage.PageSize)
			if err := storage.EncodeObjectPage(page, format, randomElements(rng, n, 57)); err != nil {
				t.Fatal(err)
			}
			pages = append(pages, page)
		}
	}
	for flags := byte(0); flags <= 7; flags++ {
		for _, ref := range filterRefs() {
			pages = append(pages, rawV2Page(flags, ref, filterCells()))
		}
	}
	for _, page := range pages {
		all, err := storage.DecodeObjectPageInto(page, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range filterQueries() {
			checkFilter(t, page, q)
		}
		for i := 0; i < 200 && len(all) > 0; i++ {
			q := geom.CubeAt(geom.V(rng.Float64()*60-30, rng.Float64()*60-30, rng.Float64()*60-30), rng.Float64()*20)
			checkFilter(t, page, q)
			checkFilter(t, page, snapQuery(q, all[rng.Intn(len(all))], uint16(rng.Intn(1<<12))))
		}
	}
}

// TestFilterObjectPageAllocatesNothing: filtering into a buffer with
// room for the page's elements costs no allocation, on both formats.
func TestFilterObjectPageAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	q := geom.CubeAt(geom.V(0, 0, 0), 20)
	for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
		page := make([]byte, storage.PageSize)
		if err := storage.EncodeObjectPage(page, format, randomElements(rng, storage.ObjectPageCapacity(format), 57)); err != nil {
			t.Fatal(err)
		}
		dst := make([]geom.Element, 0, storage.ObjectPageCapacity(format))
		n := testing.AllocsPerRun(100, func() {
			if _, err := storage.FilterObjectPageInto(page, q, dst[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s filter: %v allocations, want 0", format, n)
		}
	}
}

// FuzzFilterObjectPage is the filter's differential fuzz: whatever the
// page and the query, FilterObjectPageInto must keep exactly what
// decode-then-Intersects keeps. With raw set, data is page bytes (any
// header: v1, v2 at flags 0–7, degenerate, overflowing or non-finite
// reference boxes); otherwise it is element material encoded under both
// formats, v2 at the id width pick selects. faces snaps the query onto
// the decoded element pick selects (see snapQuery).
func FuzzFilterObjectPage(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	els := randomElements(rand.New(rand.NewSource(53)), 12, 57)
	for pick := byte(0); pick < 12; pick += 5 {
		for _, faces := range []uint16{facesBelow, facesOn, facesAbove, facesOn & 0b111111, facesAbove &^ 0b111111} {
			f.Add(elementBytes(els), false, pick, faces, -inf, -inf, -inf, inf, inf, inf)
		}
	}
	f.Add(elementBytes(els), false, byte(3), uint16(0), -10.0, -10.0, -10.0, 10.0, 10.0, 10.0)
	flat := append(append([]geom.Element(nil), els...), geom.Element{ID: 99, Box: geom.Box(geom.V(-1.5e308, 0, 0), geom.V(1.5e308, 1, 1))})
	for i := range flat {
		flat[i].Box.Min.Y, flat[i].Box.Max.Y = 2.5, 2.5 // a degenerate Y axis
	}
	for _, faces := range []uint16{facesBelow, facesOn, facesAbove} {
		f.Add(elementBytes(flat), false, byte(12), faces, -inf, -inf, -inf, inf, inf, inf)
	}
	for _, q := range filterQueries() {
		f.Add(elementBytes(els), false, byte(0), uint16(0), q.Min.X, q.Min.Y, q.Min.Z, q.Max.X, q.Max.Y, q.Max.Z)
	}
	for flags := byte(0); flags <= 7; flags++ {
		for i, ref := range filterRefs() {
			page := rawV2Page(flags, ref, filterCells())
			f.Add(page, true, flags*7+byte(i), uint16(facesOn), -inf, -inf, -inf, inf, inf, inf)
			f.Add(page, true, flags*5+byte(i), uint16(facesBelow), nan, -inf, 0.0, inf, 1.0, inf)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, raw bool, pick byte, faces uint16, x0, y0, z0, x1, y1, z1 float64) {
		q := geom.MBR{Min: geom.V(x0, y0, z0), Max: geom.V(x1, y1, z1)}
		var pages [][]byte
		if raw {
			page := make([]byte, storage.PageSize)
			copy(page, data)
			pages = append(pages, page)
		} else {
			els := elementsFromBytes(data)
			// Ids spread over a span of w bytes (flags w, 0 for 8).
			w := int(pick % 8)
			span := uint64(math.MaxUint64)
			if w > 0 {
				span = uint64(1)<<(8*w) - 1
			}
			for i := range els {
				els[i].ID = uint64(i) * (span / uint64(max(len(els)-1, 1)))
			}
			for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
				page := make([]byte, storage.PageSize)
				if err := storage.EncodeObjectPage(page, format, els); err != nil {
					t.Fatalf("%s encode: %v", format, err)
				}
				pages = append(pages, page)
			}
		}
		for _, page := range pages {
			pq := q
			if all, err := storage.DecodeObjectPageInto(page, nil); err == nil && len(all) > 0 && faces != 0 {
				pq = snapQuery(q, all[int(pick)%len(all)], faces)
			}
			checkFilter(t, page, pq)
		}
	})
}

func BenchmarkFilterObjectPageV2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	els := randomElements(rng, storage.ObjectPageCapacityV2, 57)
	page := make([]byte, storage.PageSize)
	if err := storage.EncodeObjectPage(page, storage.PageFormatV2, els); err != nil {
		b.Fatal(err)
	}
	q := geom.CubeAt(geom.V(0, 0, 0), 20) // keeps a few elements of the page
	scratch := make([]geom.Element, 0, len(els))
	b.SetBytes(storage.PageSize)
	for b.Loop() {
		var err error
		if scratch, err = storage.FilterObjectPageInto(page, q, scratch[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(scratch)), "results/page")
}
