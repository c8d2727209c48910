package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randBox returns a random valid box inside [-50,50]^3.
func randBox(r *rand.Rand) MBR {
	c := V(r.Float64()*100-50, r.Float64()*100-50, r.Float64()*100-50)
	s := V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
	return MBR{Min: c, Max: c.Add(s)}
}

func TestEmptyMBR(t *testing.T) {
	e := EmptyMBR()
	if !e.Empty() {
		t.Fatal("EmptyMBR not Empty")
	}
	if e.Volume() != 0 {
		t.Errorf("empty volume = %v", e.Volume())
	}
	b := Box(V(0, 0, 0), V(1, 1, 1))
	if got := e.Union(b); got != b {
		t.Errorf("Union with empty = %v, want %v", got, b)
	}
	if got := b.Union(e); got != b {
		t.Errorf("Union with empty (rhs) = %v, want %v", got, b)
	}
}

func TestBoxNormalizesCorners(t *testing.T) {
	b := Box(V(1, 0, 5), V(0, 2, 3))
	want := MBR{Min: V(0, 0, 3), Max: V(1, 2, 5)}
	if b != want {
		t.Errorf("Box = %v, want %v", b, want)
	}
}

func TestCubeAt(t *testing.T) {
	c := CubeAt(V(1, 1, 1), 2)
	if c.Min != V(0, 0, 0) || c.Max != V(2, 2, 2) {
		t.Errorf("CubeAt = %v", c)
	}
	if !almostEq(c.Volume(), 8) {
		t.Errorf("volume = %v", c.Volume())
	}
}

func TestMBRMetrics(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 3, 4))
	if !almostEq(b.Volume(), 24) {
		t.Errorf("Volume = %v", b.Volume())
	}
	if b.Center() != V(1, 1.5, 2) {
		t.Errorf("Center = %v", b.Center())
	}
}

func TestIntersectsTouching(t *testing.T) {
	a := Box(V(0, 0, 0), V(1, 1, 1))
	b := Box(V(1, 0, 0), V(2, 1, 1)) // shares the x=1 face
	if !a.Intersects(b) {
		t.Error("touching boxes must intersect (neighbor semantics)")
	}
	c := Box(V(1.001, 0, 0), V(2, 1, 1))
	if a.Intersects(c) {
		t.Error("disjoint boxes reported intersecting")
	}
}

func TestContains(t *testing.T) {
	outer := Box(V(0, 0, 0), V(10, 10, 10))
	inner := Box(V(1, 1, 1), V(9, 9, 9))
	if !outer.Contains(inner) {
		t.Error("outer should contain inner")
	}
	if inner.Contains(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.Contains(outer) {
		t.Error("box should contain itself")
	}
	if !outer.Contains(PointBox(V(10, 10, 10))) {
		t.Error("boundary point should be contained")
	}
	if outer.Contains(PointBox(V(10.0001, 10, 10))) {
		t.Error("outside point contained")
	}
}

// Intersection returns the overlap of m and o, Empty when they do not
// intersect. No production code computes an overlap box; it lives here
// as the reference the Intersects property test compares against.
func (m MBR) Intersection(o MBR) MBR {
	return MBR{Min: m.Min.Max(o.Min), Max: m.Max.Min(o.Max)}
}

func TestIntersectionVolume(t *testing.T) {
	a := Box(V(0, 0, 0), V(2, 2, 2))
	b := Box(V(1, 1, 1), V(3, 3, 3))
	if got := a.Intersection(b).Volume(); !almostEq(got, 1) {
		t.Errorf("Intersection volume = %v, want 1", got)
	}
	c := Box(V(5, 5, 5), V(6, 6, 6))
	if !a.Intersection(c).Empty() {
		t.Error("disjoint Intersection should be empty")
	}
}

func TestEnlargement(t *testing.T) {
	a := Box(V(0, 0, 0), V(1, 1, 1))
	b := Box(V(0, 0, 1), V(1, 1, 2))
	if got := a.Enlargement(b); !almostEq(got, 1) {
		t.Errorf("Enlargement = %v, want 1", got)
	}
	if got := a.Enlargement(a); got != 0 {
		t.Errorf("self Enlargement = %v, want 0", got)
	}
}

func TestExpand(t *testing.T) {
	a := Box(V(0, 0, 0), V(1, 1, 1)).Expand(0.5)
	if a.Min != V(-0.5, -0.5, -0.5) || a.Max != V(1.5, 1.5, 1.5) {
		t.Errorf("Expand = %v", a)
	}
}

// Property: Union is commutative, associative and contains both operands.
func TestUnionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a, b, c := randBox(r), randBox(r), randBox(r)
		if a.Union(b) != b.Union(a) {
			t.Fatal("Union not commutative")
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			t.Fatal("Union not associative")
		}
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			t.Fatal("Union does not contain operands")
		}
	}
}

// Property: Intersects is symmetric and consistent with Intersection
// emptiness; Contains implies Intersects.
func TestIntersectionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b := randBox(r), randBox(r)
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatal("Intersects not symmetric")
		}
		if a.Intersects(b) == a.Intersection(b).Empty() {
			t.Fatal("Intersects inconsistent with Intersection emptiness")
		}
		if a.Contains(b) && !a.Intersects(b) {
			t.Fatal("Contains without Intersects")
		}
	}
}

func TestDistToPoint(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 2, 2))
	cases := []struct {
		p    Vec3
		want float64
	}{
		{V(1, 1, 1), 0},           // inside
		{V(2, 2, 2), 0},           // corner
		{V(3, 1, 1), 1},           // off one face
		{V(3, 3, 1), 2},           // off one edge
		{V(3, 3, 3), 3},           // off one corner
		{V(-2, 1, 1), 4},          // negative side
		{V(-1, -1, 3), 1 + 1 + 1}, // mixed axes
	}
	for _, c := range cases {
		if got := b.DistSqToPoint(c.p); !almostEq(got, c.want) {
			t.Errorf("DistSqToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := EmptyMBR().DistSqToPoint(V(0, 0, 0)); !(got > 1e300) {
		t.Errorf("empty box DistSqToPoint = %v, want +Inf", got)
	}
}

func TestDistBoxToBox(t *testing.T) {
	a := Box(V(0, 0, 0), V(1, 1, 1))
	if got := a.DistSq(Box(V(0.5, 0.5, 0.5), V(2, 2, 2))); got != 0 {
		t.Errorf("overlapping DistSq = %v, want 0", got)
	}
	if got := a.DistSq(Box(V(1, 0, 0), V(2, 1, 1))); got != 0 {
		t.Errorf("touching DistSq = %v, want 0", got)
	}
	if got := a.DistSq(Box(V(3, 0, 0), V(4, 1, 1))); !almostEq(got, 4) {
		t.Errorf("face gap DistSq = %v, want 4", got)
	}
	if got := a.DistSq(Box(V(2, 2, 2), V(3, 3, 3))); !almostEq(got, 3) {
		t.Errorf("corner gap DistSq = %v, want 3", got)
	}
}

// Property: DistSqToPoint agrees with the brute-force distance to the
// clamped point, is 0 iff the point is inside, and a box-to-box
// distance never exceeds a point-to-box distance for a contained point.
func TestDistProperties(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		b := randBox(r)
		p := V(r.Float64()*140-70, r.Float64()*140-70, r.Float64()*140-70)
		clamped := p.Max(b.Min).Min(b.Max)
		if d := p.Sub(clamped); !almostEq(b.DistSqToPoint(p), d.Dot(d)) {
			t.Fatal("DistSqToPoint disagrees with clamp")
		}
		if (b.DistSqToPoint(p) == 0) != b.Contains(PointBox(p)) {
			t.Fatal("zero distance inconsistent with containment")
		}
		o := randBox(r)
		if b.Contains(PointBox(p)) && o.DistSq(b) > o.DistSqToPoint(p) {
			t.Fatal("box-to-box distance exceeds distance to contained point")
		}
		if (b.DistSq(o) == 0) != b.Intersects(o) {
			t.Fatal("zero box distance inconsistent with Intersects")
		}
	}
}

// Property (via testing/quick): for any two points, Box(a,b) contains both
// corner points and has non-negative volume.
func TestBoxQuick(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		box := Box(a, b)
		return box.Contains(PointBox(a)) && box.Contains(PointBox(b)) && box.Volume() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: center of a random box is inside it, and Volume matches the
// product of Size components.
func TestCenterInsideQuick(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		b := randBox(r)
		if !b.Contains(PointBox(b.Center())) {
			t.Fatal("center not contained")
		}
		s := b.Size()
		if !almostEq(b.Volume(), s.X*s.Y*s.Z) {
			t.Fatal("volume mismatch")
		}
	}
}
