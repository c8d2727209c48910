package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCylinderMBR(t *testing.T) {
	c := Cylinder{A: V(0, 0, 0), B: V(10, 0, 0), RadA: 1, RadB: 2}
	m := c.MBR()
	want := MBR{Min: V(-2, -2, -2), Max: V(12, 2, 2)}
	if m != want {
		t.Errorf("MBR = %v, want %v", m, want)
	}
}

func TestCylinderMBRContainsEndSpheres(t *testing.T) {
	// The MBR must contain both endpoint spheres for random cylinders.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		c := Cylinder{
			A:    V(r.NormFloat64()*20, r.NormFloat64()*20, r.NormFloat64()*20),
			B:    V(r.NormFloat64()*20, r.NormFloat64()*20, r.NormFloat64()*20),
			RadA: r.Float64() * 3,
			RadB: r.Float64() * 3,
		}
		m := c.MBR()
		rr := math.Max(c.RadA, c.RadB)
		for _, p := range []Vec3{c.A, c.B} {
			sphere := MBR{Min: p.Sub(V(rr, rr, rr)), Max: p.Add(V(rr, rr, rr))}
			if !m.Contains(sphere) {
				t.Fatalf("MBR %v does not contain endpoint sphere %v", m, sphere)
			}
		}
	}
}

func TestCylinderLengthVolume(t *testing.T) {
	c := Cylinder{A: V(0, 0, 0), B: V(0, 0, 4), RadA: 1, RadB: 1}
	if !almostEq(c.Length(), 4) {
		t.Errorf("Length = %v", c.Length())
	}
	// Constant radius: volume = pi r^2 h.
	if !almostEq(c.Volume(), math.Pi*4) {
		t.Errorf("Volume = %v, want %v", c.Volume(), math.Pi*4)
	}
}

func TestTriangleMBRAndArea(t *testing.T) {
	tr := Triangle{P0: V(0, 0, 0), P1: V(2, 0, 0), P2: V(0, 3, 0)}
	m := tr.MBR()
	if m.Min != V(0, 0, 0) || m.Max != V(2, 3, 0) {
		t.Errorf("MBR = %v", m)
	}
}

func TestElementsMBR(t *testing.T) {
	els := []Element{
		{ID: 1, Box: Box(V(0, 0, 0), V(1, 1, 1))},
		{ID: 2, Box: Box(V(5, -2, 0), V(6, 0, 3))},
	}
	m := ElementsMBR(els)
	want := Box(V(0, -2, 0), V(6, 1, 3))
	if m != want {
		t.Errorf("ElementsMBR = %v, want %v", m, want)
	}
	if !ElementsMBR(nil).Empty() {
		t.Error("ElementsMBR(nil) should be empty")
	}
}
