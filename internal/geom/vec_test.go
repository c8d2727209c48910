package geom

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecArithmetic(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, 5, 6)
	if got := a.Add(b); got != V(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecLenNormalize(t *testing.T) {
	v := V(3, 4, 0)
	if !almostEq(v.Len(), 5) {
		t.Errorf("Len = %v, want 5", v.Len())
	}
	n := v.Normalize()
	if !almostEq(n.Len(), 1) {
		t.Errorf("Normalize length = %v", n.Len())
	}
	z := Vec3{}
	if z.Normalize() != z {
		t.Errorf("Normalize of zero changed the vector")
	}
}

func TestVecDist(t *testing.T) {
	if d := V(0, 0, 0).Dist(V(1, 2, 2)); !almostEq(d, 3) {
		t.Errorf("Dist = %v, want 3", d)
	}
}

func TestVecMinMax(t *testing.T) {
	a := V(1, 5, 3)
	b := V(2, 4, 3)
	if got := a.Min(b); got != V(1, 4, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(2, 5, 3) {
		t.Errorf("Max = %v", got)
	}
}

func TestVecAxisRoundTrip(t *testing.T) {
	v := V(7, 8, 9)
	for i := 0; i < 3; i++ {
		if got := v.Axis(i); got != float64(7+i) {
			t.Errorf("Axis(%d) = %v", i, got)
		}
		w := v.SetAxis(i, 42)
		if w.Axis(i) != 42 {
			t.Errorf("SetAxis(%d) did not stick", i)
		}
		for j := 0; j < 3; j++ {
			if j != i && w.Axis(j) != v.Axis(j) {
				t.Errorf("SetAxis(%d) clobbered axis %d", i, j)
			}
		}
	}
}

func TestVecString(t *testing.T) {
	if s := V(1, 2.5, -3).String(); s != "(1, 2.5, -3)" {
		t.Errorf("String = %q", s)
	}
}
