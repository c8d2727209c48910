package datagen

import (
	"math"
	"testing"

	"flat/internal/geom"
)

func world8mm() geom.MBR {
	// The paper's Section VII-E volume: 8 mm³ = (2000 µm)³ is 8e9 µm³;
	// the paper writes 8 mm³, we use a 2000 µm cube.
	return geom.Box(geom.V(0, 0, 0), geom.V(2000, 2000, 2000))
}

func TestUniformBoxesVolumeExact(t *testing.T) {
	els := UniformBoxes(UniformSpec{N: 500, World: world8mm(), ElementVolume: 18, Seed: 1})
	if len(els) != 500 {
		t.Fatalf("n = %d", len(els))
	}
	for i, e := range els {
		if v := e.Box.Volume(); math.Abs(v-18) > 1e-9 {
			t.Fatalf("element %d volume = %g, want 18", i, v)
		}
		if e.ID != uint64(i) {
			t.Fatalf("bad id")
		}
	}
}

func TestUniformBoxesAspectRange(t *testing.T) {
	els := UniformBoxes(UniformSpec{
		N: 2000, World: world8mm(), ElementVolume: 18,
		AspectMin: 5, AspectMax: 35, Seed: 2,
	})
	varied := false
	for _, e := range els {
		s := e.Box.Size()
		if math.Abs(e.Box.Volume()-18) > 1e-9 {
			t.Fatalf("volume not normalized: %g", e.Box.Volume())
		}
		// Aspect ratio: max side / min side should often exceed 1.
		mx := math.Max(s.X, math.Max(s.Y, s.Z))
		mn := math.Min(s.X, math.Min(s.Y, s.Z))
		if mx/mn > 1.5 {
			varied = true
		}
	}
	if !varied {
		t.Error("aspect sweep produced only cubes")
	}
}

func TestUniformBoxesCubesByDefault(t *testing.T) {
	els := UniformBoxes(UniformSpec{N: 10, World: world8mm(), ElementVolume: 27, Seed: 3})
	for _, e := range els {
		s := e.Box.Size()
		if math.Abs(s.X-3) > 1e-9 || math.Abs(s.Y-3) > 1e-9 || math.Abs(s.Z-3) > 1e-9 {
			t.Fatalf("default should be cubes, got %v", s)
		}
	}
}

func TestUniformDeterminism(t *testing.T) {
	a := UniformBoxes(UniformSpec{N: 100, World: world8mm(), Seed: 7})
	b := UniformBoxes(UniformSpec{N: 100, World: world8mm(), Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestPlummerClustered(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(1000, 1000, 1000))
	els := Plummer(PlummerSpec{N: 20000, World: world, Clusters: 5, Seed: 4})
	if len(els) != 20000 {
		t.Fatalf("n = %d", len(els))
	}
	for _, e := range els {
		if !world.Expand(1).Contains(e.Box) {
			t.Fatalf("particle outside world: %v", e.Box)
		}
	}
	// Clustering check: the median nearest-cell occupancy must be far
	// from uniform. Count occupancy over a 10^3 grid; a uniform set
	// would put ~20 in each cell, a clustered one leaves most empty.
	const g = 10
	counts := make([]int, g*g*g)
	for _, e := range els {
		c := e.Box.Center()
		ix, iy, iz := int(c.X/100), int(c.Y/100), int(c.Z/100)
		if ix > 9 {
			ix = 9
		}
		if iy > 9 {
			iy = 9
		}
		if iz > 9 {
			iz = 9
		}
		counts[ix*100+iy*10+iz]++
	}
	empty := 0
	for _, c := range counts {
		if c == 0 {
			empty++
		}
	}
	if empty < len(counts)/2 {
		t.Errorf("only %d of %d cells empty; data not clustered enough", empty, len(counts))
	}
}

func TestSurfaceMeshProperties(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100))
	els := SurfaceMesh(MeshSpec{N: 10000, World: world, Seed: 5})
	if len(els) < 8000 || len(els) > 13000 {
		t.Fatalf("triangle count %d not near 10000", len(els))
	}
	center := world.Center()
	for _, e := range els {
		if !world.Contains(e.Box) {
			t.Fatalf("triangle outside world: %v", e.Box)
		}
		// Shell property: triangle centers stay away from the world
		// center (hollow interior).
		if e.Box.Center().Dist(center) < 10 {
			t.Fatalf("triangle at %v is inside the shell", e.Box.Center())
		}
	}
}

func TestQueriesVolumeAndContainment(t *testing.T) {
	world := world8mm()
	for _, frac := range []float64{SNVolumeFraction, LSSVolumeFraction} {
		qs := Queries(QuerySpec{Count: 200, World: world, VolumeFraction: frac, Seed: 6})
		if len(qs) != 200 {
			t.Fatalf("count = %d", len(qs))
		}
		want := world.Volume() * frac
		for i, q := range qs {
			if v := q.Volume(); math.Abs(v-want)/want > 1e-9 {
				t.Fatalf("query %d volume = %g, want %g", i, v, want)
			}
			if !world.Contains(q) {
				t.Fatalf("query %d extends outside the world", i)
			}
		}
	}
}

func TestQueriesAspectVaries(t *testing.T) {
	qs := Queries(QuerySpec{Count: 100, World: world8mm(), VolumeFraction: 1e-6, Seed: 8})
	varied := false
	for _, q := range qs {
		s := q.Size()
		if s.X/s.Y > 1.5 || s.Y/s.X > 1.5 {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("query aspect ratios do not vary")
	}
}

func TestPoints(t *testing.T) {
	world := world8mm()
	pts := Points(500, world, 9)
	if len(pts) != 500 {
		t.Fatalf("count = %d", len(pts))
	}
	for _, p := range pts {
		if !world.Contains(geom.PointBox(p)) {
			t.Fatalf("point %v outside world", p)
		}
	}
	again := Points(500, world, 9)
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatal("points not deterministic")
		}
	}
}
