package geom

import "math"

// Cylinder models one segment of a neuron morphology, exactly as in the
// paper: two end points and a radius at each end point (a truncated cone,
// but the paper and the BBP tooling call it a cylinder).
type Cylinder struct {
	A, B Vec3    // end points of the segment axis
	RadA float64 // radius at A
	RadB float64 // radius at B
}

// MBR returns the axis-aligned bounding box of the cylinder. The box of a
// capsule with the larger of the two radii is used; it is a tight,
// conservative bound that always contains the true swept surface.
func (c Cylinder) MBR() MBR {
	r := math.Max(c.RadA, c.RadB)
	lo := c.A.Min(c.B).Sub(Vec3{r, r, r})
	hi := c.A.Max(c.B).Add(Vec3{r, r, r})
	return MBR{Min: lo, Max: hi}
}

// Length returns the length of the cylinder axis.
func (c Cylinder) Length() float64 { return c.A.Dist(c.B) }

// Volume approximates the cylinder volume using the truncated-cone
// formula.
func (c Cylinder) Volume() float64 {
	h := c.Length()
	return math.Pi * h / 3 * (c.RadA*c.RadA + c.RadA*c.RadB + c.RadB*c.RadB)
}

// Triangle is a surface-mesh triangle (used for the brain-mesh and Lucy
// data sets). As the paper notes, a mesh triangle needs 9 floats.
type Triangle struct {
	P0, P1, P2 Vec3
}

// MBR returns the axis-aligned bounding box of the triangle.
func (t Triangle) MBR() MBR {
	return MBR{
		Min: t.P0.Min(t.P1).Min(t.P2),
		Max: t.P0.Max(t.P1).Max(t.P2),
	}
}

// Element is a spatial element as stored by every index in this
// repository: an opaque 64-bit identifier (the "primary key" the paper
// uses to retrieve further information about the element) plus the
// element's MBR. Following the paper's methodology section, all indexes
// store and test only the MBRs of the underlying shapes.
type Element struct {
	ID  uint64
	Box MBR
}

// ElementsMBR returns the bounding box of a slice of elements: the
// Union of their boxes, in order. Once the union holds a box that is not
// empty it never is again, so from there on each step is Union's
// min/max, without Union's call and its test of the union.
func ElementsMBR(els []Element) MBR {
	m := EmptyMBR()
	i := 0
	for ; i < len(els) && m.Empty(); i++ {
		m = els[i].Box // Union with an empty box is the other box
	}
	for ; i < len(els); i++ {
		if b := &els[i].Box; !b.Empty() {
			m = MBR{Min: m.Min.Min(b.Min), Max: m.Max.Max(b.Max)}
		}
	}
	return m
}
