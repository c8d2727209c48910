package str

import (
	"math/rand"
	"testing"

	"flat/internal/geom"
)

// randomElements returns n elements with random small boxes inside world.
func randomElements(r *rand.Rand, n int, world geom.MBR) []geom.Element {
	els := make([]geom.Element, n)
	size := world.Size()
	for i := range els {
		c := geom.V(
			world.Min.X+r.Float64()*size.X,
			world.Min.Y+r.Float64()*size.Y,
			world.Min.Z+r.Float64()*size.Z,
		)
		h := geom.V(r.Float64()*2, r.Float64()*2, r.Float64()*2)
		els[i] = geom.Element{ID: uint64(i), Box: geom.Box(c.Sub(h), c.Add(h))}
	}
	return els
}

func worldBox() geom.MBR { return geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100)) }

func TestTileRespectsCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	els := randomElements(r, 1234, worldBox())
	groups := Tile(els, func(e geom.Element) geom.Vec3 { return e.Box.Center() }, 50)
	total := 0
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty group")
		}
		if len(g) > 50 {
			t.Fatalf("group size %d exceeds capacity", len(g))
		}
		total += len(g)
	}
	if total != 1234 {
		t.Fatalf("groups cover %d elements, want 1234", total)
	}
}

func TestTilePreservesMultiset(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	els := randomElements(r, 500, worldBox())
	groups := Tile(els, func(e geom.Element) geom.Vec3 { return e.Box.Center() }, 37)
	seen := make(map[uint64]bool)
	for _, g := range groups {
		for _, e := range g {
			if seen[e.ID] {
				t.Fatalf("element %d appears twice", e.ID)
			}
			seen[e.ID] = true
		}
	}
	if len(seen) != 500 {
		t.Fatalf("lost elements: %d of 500", len(seen))
	}
}

func TestTileSmallInput(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	els := randomElements(r, 10, worldBox())
	groups := Tile(els, func(e geom.Element) geom.Vec3 { return e.Box.Center() }, 85)
	if len(groups) != 1 || len(groups[0]) != 10 {
		t.Fatalf("small input should be one group, got %d groups", len(groups))
	}
	if got := Tile(nil, func(e geom.Element) geom.Vec3 { return e.Box.Center() }, 85); got != nil {
		t.Error("empty input should return nil")
	}
}

func TestTileSpatialLocality(t *testing.T) {
	// The average group MBR volume must be far below the volume a random
	// grouping would produce — the entire point of STR packing.
	r := rand.New(rand.NewSource(31))
	els := randomElements(r, 5000, worldBox())
	shuffled := make([]geom.Element, len(els))
	copy(shuffled, els)

	groups := Tile(els, func(e geom.Element) geom.Vec3 { return e.Box.Center() }, 85)
	var strVol float64
	for _, g := range groups {
		strVol += geom.ElementsMBR(g).Volume()
	}
	strVol /= float64(len(groups))

	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var rndVol float64
	nrnd := 0
	for i := 0; i+85 <= len(shuffled); i += 85 {
		rndVol += geom.ElementsMBR(shuffled[i : i+85]).Volume()
		nrnd++
	}
	rndVol /= float64(nrnd)

	if strVol >= rndVol/10 {
		t.Errorf("STR locality too weak: STR avg vol %g vs random %g", strVol, rndVol)
	}
}

func TestSliceCount(t *testing.T) {
	cases := []struct{ n, cap, want int }{
		{1, 85, 1},
		{85, 85, 1},
		{86, 85, 2},      // 2 pages -> cbrt(2) -> 2
		{85 * 8, 85, 2},  // 8 pages -> 2
		{85 * 27, 85, 3}, // 27 pages -> 3
		{85 * 28, 85, 4},
	}
	for _, c := range cases {
		if got := sliceCount(c.n, c.cap); got != c.want {
			t.Errorf("sliceCount(%d,%d) = %d, want %d", c.n, c.cap, got, c.want)
		}
	}
}

func TestPartitionElementsProperties(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	world := worldBox()
	for _, n := range []int{1, 10, 85, 86, 1000, 4321} {
		els := randomElements(r, n, world)
		parts := PartitionElements(els, 85, world)

		total := 0
		for _, p := range parts {
			total += len(p.Elements)
			if len(p.Elements) == 0 || len(p.Elements) > 85 {
				t.Fatalf("n=%d: partition size %d", n, len(p.Elements))
			}
			// Page MBR is the exact bound of the partition's elements.
			if p.PageMBR != geom.ElementsMBR(p.Elements) {
				t.Fatalf("n=%d: PageMBR mismatch", n)
			}
			// Property 2: partition MBR encloses page MBR.
			if !p.PartitionMBR.Contains(p.PageMBR) {
				t.Fatalf("n=%d: partition MBR %v does not contain page MBR %v",
					n, p.PartitionMBR, p.PageMBR)
			}
			// The cell is inside the partition MBR too (stretch only grows).
			if !p.PartitionMBR.Contains(p.Cell) {
				t.Fatalf("n=%d: partition MBR does not contain cell", n)
			}
		}
		if total != n {
			t.Fatalf("n=%d: partitions cover %d elements", n, total)
		}
	}
}

// TestPartitionCellsCoverWorld verifies the paper's "no empty space"
// property: every point of the world box lies in at least one cell.
// Checked by Monte-Carlo sampling plus exact corner/boundary probes.
func TestPartitionCellsCoverWorld(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	world := worldBox()
	els := randomElements(r, 3000, world)
	parts := PartitionElements(els, 85, world)

	probes := make([]geom.Vec3, 0, 3000+8)
	for i := 0; i < 3000; i++ {
		probes = append(probes, geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100))
	}
	// World corners are the most likely places to be left uncovered.
	for _, x := range []float64{0, 100} {
		for _, y := range []float64{0, 100} {
			for _, z := range []float64{0, 100} {
				probes = append(probes, geom.V(x, y, z))
			}
		}
	}
	for _, pt := range probes {
		covered := false
		for _, p := range parts {
			if p.Cell.Contains(geom.PointBox(pt)) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("point %v not covered by any cell", pt)
		}
	}
}

// TestPartitionClusteredData exercises the concave/clustered case the
// paper cares about: elements in two well-separated clusters must still
// produce cells covering the empty middle.
func TestPartitionClusteredData(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	world := worldBox()
	var els []geom.Element
	id := uint64(0)
	for _, base := range []geom.Vec3{geom.V(5, 5, 5), geom.V(90, 90, 90)} {
		for i := 0; i < 500; i++ {
			c := base.Add(geom.V(r.Float64()*8, r.Float64()*8, r.Float64()*8))
			els = append(els, geom.Element{ID: id, Box: geom.CubeAt(c, 0.5)})
			id++
		}
	}
	parts := PartitionElements(els, 85, world)
	mid := geom.V(50, 50, 50)
	covered := false
	for _, p := range parts {
		if p.Cell.Contains(geom.PointBox(mid)) {
			covered = true
			break
		}
	}
	if !covered {
		t.Error("empty middle region not covered by any cell")
	}
}

func TestPartitionDeterminism(t *testing.T) {
	world := worldBox()
	mk := func() []geom.Element {
		r := rand.New(rand.NewSource(47))
		return randomElements(r, 800, world)
	}
	a := PartitionElements(mk(), 85, world)
	b := PartitionElements(mk(), 85, world)
	if len(a) != len(b) {
		t.Fatalf("partition counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cell != b[i].Cell || a[i].PageMBR != b[i].PageMBR {
			t.Fatalf("partition %d differs between runs", i)
		}
		for j := range a[i].Elements {
			if a[i].Elements[j].ID != b[i].Elements[j].ID {
				t.Fatalf("partition %d element order differs", i)
			}
		}
	}
}

func TestPartitionPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity 0")
		}
	}()
	PartitionElements(nil, 0, worldBox())
}

// BenchmarkPartitionElements is the STR layer's microbenchmark: one
// shard's share of the served benchmark's model (450 000 / 4 elements)
// partitioned into full v2 pages — three nested sort passes.
func BenchmarkPartitionElements(b *testing.B) {
	world := worldBox()
	src := randomElements(rand.New(rand.NewSource(5)), 112_500, world)
	els := make([]geom.Element, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(els, src)
		b.StartTimer()
		if parts := PartitionElements(els, 126, world); len(parts) == 0 {
			b.Fatal("no partitions")
		}
	}
}
