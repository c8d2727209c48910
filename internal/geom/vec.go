// Package geom provides the 3D geometric primitives used throughout the
// FLAT reproduction: vectors, axis-aligned minimum bounding rectangles
// (MBRs), and the spatial element shapes of the paper's data sets
// (cylinders for neuron morphologies, triangles for surface meshes).
//
// All coordinates are float64, matching the paper's use of double
// precision for MBR coordinates. The package is purely computational and
// allocation-conscious: the hot predicates (Intersects, Contains) are
// branch-only and inlineable.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in 3D space. Coordinates are in the data
// set's native unit (micrometers for the brain models).
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Min returns the component-wise minimum of v and w. It uses the
// built-in min, which the compiler inlines, and agrees with math.Min
// bit for bit — −0 below +0, ±Inf — except beside a NaN: min(−Inf, NaN)
// is NaN where math.Min gives −Inf. No build meets that pair, since
// Build rejects a box with a NaN before it takes a union.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{min(v.X, w.X), min(v.Y, w.Y), min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w: the built-in max,
// which agrees with math.Max as Min does with math.Min (max(+Inf, NaN)
// is NaN where math.Max gives +Inf).
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{max(v.X, w.X), max(v.Y, w.Y), max(v.Z, w.Z)}
}

// Axis returns the i-th coordinate (0 = X, 1 = Y, 2 = Z).
func (v Vec3) Axis(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// SetAxis returns a copy of v with the i-th coordinate set to val.
func (v Vec3) SetAxis(i int, val float64) Vec3 {
	switch i {
	case 0:
		v.X = val
	case 1:
		v.Y = val
	default:
		v.Z = val
	}
	return v
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z)
}
