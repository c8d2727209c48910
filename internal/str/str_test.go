package str

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// latticeElements returns n elements whose centers sit on a 6×6×6
// lattice inside world, so centers tie on one, two or all three axes.
func latticeElements(r *rand.Rand, n int, world geom.MBR) []geom.Element {
	els := make([]geom.Element, n)
	step := world.Size().Scale(1.0 / 5)
	for i := range els {
		c := world.Min.Add(geom.V(float64(r.Intn(6))*step.X, float64(r.Intn(6))*step.Y, float64(r.Intn(6))*step.Z))
		els[i] = geom.Element{ID: uint64(i), Box: geom.CubeAt(c, 1)}
	}
	return els
}

// TestSTRFillsPages pins the whole-page rule of both STR passes: n items
// make ceil(n/capacity) groups, and every group but the last holds
// exactly capacity items. PartitionElements' cells still tile the
// world: each lies inside it, their volumes sum to its volume, and
// every probe point lies in one.
func TestSTRFillsPages(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	world := worldBox()
	center := func(e geom.Element) geom.Vec3 { return e.Box.Center() }
	checkFill := func(name string, sizes []int, n, capacity int) {
		t.Helper()
		if want := (n + capacity - 1) / capacity; len(sizes) != want {
			t.Fatalf("%s: %d groups, want ceil(%d/%d) = %d", name, len(sizes), n, capacity, want)
		}
		for i, size := range sizes[:len(sizes)-1] {
			if size != capacity {
				t.Fatalf("%s: group %d of %d holds %d, want %d", name, i, len(sizes), size, capacity)
			}
		}
	}
	for _, capacity := range []int{16, 73, 85, 149} {
		for _, n := range []int{1, capacity - 1, capacity, capacity + 1, 8*capacity + 1, 4321, 112_500} {
			if n < 1 {
				continue
			}
			sets := map[string][]geom.Element{"random": randomElements(r, n, world), "lattice": latticeElements(r, n, world)}
			for kind, els := range sets {
				name := fmt.Sprintf("%s cap=%d n=%d", kind, capacity, n)

				var sizes []int
				for _, g := range Tile(slices.Clone(els), center, capacity) {
					sizes = append(sizes, len(g))
				}
				checkFill("Tile "+name, sizes, n, capacity)

				parts := PartitionElements(els, capacity, world)
				sizes, volume := sizes[:0], 0.0
				for _, p := range parts {
					sizes = append(sizes, len(p.Elements))
					if !world.Contains(p.Cell) {
						t.Fatalf("PartitionElements %s: cell %v outside the world", name, p.Cell)
					}
					volume += p.Cell.Volume()
				}
				checkFill("PartitionElements "+name, sizes, n, capacity)
				if math.Abs(volume-world.Volume()) > 1e-9*world.Volume() {
					t.Fatalf("PartitionElements %s: cells sum to volume %g, world %g", name, volume, world.Volume())
				}
				for range 64 {
					pt := geom.PointBox(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100))
					if !slices.ContainsFunc(parts, func(p Partition) bool { return p.Cell.Contains(pt) }) {
						t.Fatalf("PartitionElements %s: point %v in no cell", name, pt.Min)
					}
				}
			}
		}
	}
}

// sortedPasses is PartitionElements as it ran before its x and y passes
// selected their slabs: every pass sorts (sortByAxis, which
// TestSorterMatchesSliceStable holds to sort.SliceStable) and the slabs
// and their cuts are read off the sorted order. It returns the elements
// in partition order and the cells.
func sortedPasses(els []geom.Element, capacity int, world geom.MBR) ([]geom.Element, []geom.MBR) {
	n := len(els)
	if n <= capacity {
		return slices.Clone(els), []geom.MBR{world}
	}
	o := newOrder(n, func(i int) geom.Vec3 { return els[i].Box.Center() })
	// cuts bounds the runs with lo and hi and the coordinate each later
	// run begins at, raised to the one before it.
	cuts := func(runs [][]int, axis int, lo, hi float64) []float64 {
		c := []float64{lo}
		for _, r := range runs[1:] {
			c = append(c, o.centers[r[0]].Axis(axis))
		}
		c = append(c, hi)
		for i := 1; i < len(c); i++ {
			if c[i] < c[i-1] {
				c[i] = c[i-1]
			}
		}
		return c
	}
	pn := sliceCount(n, capacity)
	var cells []geom.MBR
	o.sortByAxis(o.perm, 0)
	xRuns := Chunks(o.perm, slabSize(n, pn, capacity))
	xCuts := cuts(xRuns, 0, world.Min.X, world.Max.X)
	for xi, xs := range xRuns {
		o.sortByAxis(xs, 1)
		yRuns := Chunks(xs, slabSize(len(xs), pn, capacity))
		yCuts := cuts(yRuns, 1, world.Min.Y, world.Max.Y)
		for yi, ys := range yRuns {
			o.sortByAxis(ys, 2)
			zRuns := Chunks(ys, capacity)
			zCuts := cuts(zRuns, 2, world.Min.Z, world.Max.Z)
			for zi := range zRuns {
				cells = append(cells, geom.MBR{
					Min: geom.V(xCuts[xi], yCuts[yi], zCuts[zi]),
					Max: geom.V(xCuts[xi+1], yCuts[yi+1], zCuts[zi+1]),
				})
			}
		}
	}
	out := slices.Clone(els)
	permute(out, o.perm)
	return out, cells
}

// sameBits reports whether two boxes have the same coordinates, bit for
// bit: a NaN cut matches itself.
func sameBits(a, b geom.MBR) bool {
	for i := 0; i < 3; i++ {
		if math.Float64bits(a.Min.Axis(i)) != math.Float64bits(b.Min.Axis(i)) ||
			math.Float64bits(a.Max.Axis(i)) != math.Float64bits(b.Max.Axis(i)) {
			return false
		}
	}
	return true
}

// TestPartitionMatchesSortedPasses holds PartitionElements and Tile,
// whose x and y passes select their slabs (SplitRanks), to the passes
// they replaced, which sorted: the same elements in the same order and
// the same cells. The inputs are the ones that tell a selection from a
// sort — centers on a lattice and on a few x values, so slab cuts fall
// inside runs of tied keys; one center for all (a single bucket); and
// NaN and infinite centers, which fall back to sorting — with ids shuffled against
// positions, so a tie broken by anything but position shows.
func TestPartitionMatchesSortedPasses(t *testing.T) {
	world := worldBox()
	shapes := map[string]func(r *rand.Rand, n int) []geom.Element{
		"random":  func(r *rand.Rand, n int) []geom.Element { return randomElements(r, n, world) },
		"lattice": func(r *rand.Rand, n int) []geom.Element { return latticeElements(r, n, world) },
		"few x": func(r *rand.Rand, n int) []geom.Element {
			els := randomElements(r, n, world)
			for i := range els {
				x := float64(r.Intn(3)) * 40
				els[i].Box.Min.X, els[i].Box.Max.X = x, x+1
			}
			return els
		},
		"one center": func(r *rand.Rand, n int) []geom.Element {
			els := make([]geom.Element, n)
			for i := range els {
				els[i].Box = geom.CubeAt(geom.V(50, 50, 50), float64(1+r.Intn(3)))
			}
			return els
		},
		"nan": func(r *rand.Rand, n int) []geom.Element {
			els := latticeElements(r, n, world)
			for i := 0; i < n; i += 7 {
				els[i].Box.Min.Y = math.NaN()
			}
			return els
		},
		"inf": func(r *rand.Rand, n int) []geom.Element {
			els := latticeElements(r, n, world)
			for i := 0; i < n; i += 5 {
				els[i].Box.Max.X = math.Inf(1)
			}
			return els
		},
	}
	center := func(e geom.Element) geom.Vec3 { return e.Box.Center() }
	ids := func(els []geom.Element) []uint64 {
		out := make([]uint64, len(els))
		for i, e := range els {
			out[i] = e.ID
		}
		return out
	}
	for name, shape := range shapes {
		for _, capacity := range []int{1, 3, 16, 85, 149} {
			for _, n := range []int{1, capacity, capacity + 1, 8*capacity + 1, 1000, 4321, 12_000} {
				r := rand.New(rand.NewSource(int64(n*7 + capacity)))
				els := shape(r, n)
				for i, id := range r.Perm(n) {
					els[i].ID = uint64(id)
				}
				label := fmt.Sprintf("%s cap=%d n=%d", name, capacity, n)
				want, cells := sortedPasses(els, capacity, world)

				parts := PartitionElements(slices.Clone(els), capacity, world)
				var got []geom.Element
				for i, p := range parts {
					got = append(got, p.Elements...)
					if i < len(cells) && !sameBits(p.Cell, cells[i]) {
						t.Fatalf("%s: partition %d cell %v, the sorted passes give %v", label, i, p.Cell, cells[i])
					}
				}
				if len(parts) != len(cells) || !slices.Equal(ids(got), ids(want)) {
					t.Fatalf("%s: %d partitions; the sorted passes give %d, or another element order", label, len(parts), len(cells))
				}

				var tiled []geom.Element
				for _, g := range Tile(slices.Clone(els), center, capacity) {
					tiled = append(tiled, g...)
				}
				if !slices.Equal(ids(tiled), ids(want)) {
					t.Fatalf("%s: Tile's order differs from the sorted passes'", label)
				}
			}
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
