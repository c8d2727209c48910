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

// TestMinMaxMatchMath holds Vec3.Min/Max and MBR.Union, which use the
// built-in min and max, to math.Min/Max bit for bit on finite values,
// both zeros and both infinities. The one difference — a NaN beside an
// infinity of the same sign as the result, where math.Min(−Inf, NaN) is
// −Inf and the built-in min is NaN — is pinned too; a build rejects such
// boxes before it takes a union.
func TestMinMaxMatchMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, -1, 2.5, -1e300, 1e300, 5e-324, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, a := range vals {
		for _, b := range vals {
			v, w := V(a, b, a), V(b, a, a)
			gotMin, gotMax := v.Min(w), v.Max(w)
			for i := 0; i < 3; i++ {
				x, y := v.Axis(i), w.Axis(i)
				if !same(gotMin.Axis(i), math.Min(x, y)) {
					t.Errorf("Min(%v, %v) = %v, math.Min gives %v", x, y, gotMin.Axis(i), math.Min(x, y))
				}
				if !same(gotMax.Axis(i), math.Max(x, y)) {
					t.Errorf("Max(%v, %v) = %v, math.Max gives %v", x, y, gotMax.Axis(i), math.Max(x, y))
				}
			}
			// Union of two boxes that are not empty: a point box at each
			// value pair, so every coordinate meets every other.
			m, o := PointBox(v), PointBox(w)
			u := m.Union(o)
			want := MBR{
				Min: V(math.Min(a, b), math.Min(b, a), math.Min(a, a)),
				Max: V(math.Max(a, b), math.Max(b, a), math.Max(a, a)),
			}
			for i := 0; i < 3; i++ {
				if !same(u.Min.Axis(i), want.Min.Axis(i)) || !same(u.Max.Axis(i), want.Max.Axis(i)) {
					t.Errorf("Union(%v, %v) = %v, math gives %v", m, o, u, want)
				}
			}
		}
	}
	nan := math.NaN()
	if got := V(math.Inf(-1), 0, 0).Min(V(nan, 0, 0)).X; !math.IsNaN(got) || math.Min(math.Inf(-1), nan) != math.Inf(-1) {
		t.Errorf("Min(−Inf, NaN) = %v, want NaN (math.Min: −Inf)", got)
	}
	if got := V(math.Inf(1), 0, 0).Max(V(nan, 0, 0)).X; !math.IsNaN(got) || math.Max(math.Inf(1), nan) != math.Inf(1) {
		t.Errorf("Max(+Inf, NaN) = %v, want NaN (math.Max: +Inf)", got)
	}
}
