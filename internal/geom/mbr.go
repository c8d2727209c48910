package geom

import (
	"fmt"
	"math"
)

// MBR is an axis-aligned minimum bounding rectangle (a box) in 3D space.
// An MBR is valid when Min[i] <= Max[i] on every axis. The zero MBR
// (both corners at the origin) is a valid degenerate box; use EmptyMBR for
// the identity of Union.
type MBR struct {
	Min, Max Vec3
}

// EmptyMBR returns the identity element for Union: a box with inverted
// infinite bounds. Empty() reports true for it and Union with any box b
// yields b.
func EmptyMBR() MBR {
	inf := math.Inf(1)
	return MBR{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Box constructs an MBR from two opposite corners given in any order.
func Box(a, b Vec3) MBR {
	return MBR{Min: a.Min(b), Max: a.Max(b)}
}

// PointBox returns the degenerate MBR containing exactly p.
func PointBox(p Vec3) MBR { return MBR{Min: p, Max: p} }

// CubeAt returns the axis-aligned cube centered at c with the given side
// length.
func CubeAt(c Vec3, side float64) MBR {
	h := side / 2
	return MBR{Min: c.Sub(Vec3{h, h, h}), Max: c.Add(Vec3{h, h, h})}
}

// Empty reports whether the MBR contains no points (any inverted axis).
func (m MBR) Empty() bool {
	return m.Min.X > m.Max.X || m.Min.Y > m.Max.Y || m.Min.Z > m.Max.Z
}

// Valid reports whether the MBR is well-formed (Min <= Max on all axes and
// all coordinates finite).
func (m MBR) Valid() bool {
	return m.Min.X <= m.Max.X && m.Min.Y <= m.Max.Y && m.Min.Z <= m.Max.Z &&
		finite(m.Min.X) && finite(m.Min.Y) && finite(m.Min.Z) &&
		finite(m.Max.X) && finite(m.Max.Y) && finite(m.Max.Z)
}

// finite reports whether x is neither infinite nor NaN: x − x is 0
// exactly then, and NaN otherwise.
func finite(x float64) bool { return x-x == 0 }

// Center returns the centroid of the box.
func (m MBR) Center() Vec3 {
	return Vec3{
		(m.Min.X + m.Max.X) / 2,
		(m.Min.Y + m.Max.Y) / 2,
		(m.Min.Z + m.Max.Z) / 2,
	}
}

// Size returns the extent of the box along each axis.
func (m MBR) Size() Vec3 { return m.Max.Sub(m.Min) }

// Volume returns the volume of the box. An empty box has volume 0.
func (m MBR) Volume() float64 {
	if m.Empty() {
		return 0
	}
	s := m.Size()
	return s.X * s.Y * s.Z
}

// Intersects reports whether m and o share at least one point. Boxes that
// merely touch (share a face, edge or corner) intersect: the paper's
// neighborhood relation treats adjacent partitions as neighbors.
func (m MBR) Intersects(o MBR) bool {
	return m.Min.X <= o.Max.X && o.Min.X <= m.Max.X &&
		m.Min.Y <= o.Max.Y && o.Min.Y <= m.Max.Y &&
		m.Min.Z <= o.Max.Z && o.Min.Z <= m.Max.Z
}

// Contains reports whether o lies entirely inside m (boundaries included).
func (m MBR) Contains(o MBR) bool {
	return m.Min.X <= o.Min.X && o.Max.X <= m.Max.X &&
		m.Min.Y <= o.Min.Y && o.Max.Y <= m.Max.Y &&
		m.Min.Z <= o.Min.Z && o.Max.Z <= m.Max.Z
}

// Union returns the smallest MBR containing both m and o.
func (m MBR) Union(o MBR) MBR {
	if m.Empty() {
		return o
	}
	if o.Empty() {
		return m
	}
	return MBR{Min: m.Min.Min(o.Min), Max: m.Max.Max(o.Max)}
}

// Expand returns m grown by d on every side (shrunk if d is negative).
func (m MBR) Expand(d float64) MBR {
	e := Vec3{d, d, d}
	return MBR{Min: m.Min.Sub(e), Max: m.Max.Add(e)}
}

// Enlargement returns the volume increase of m if it were grown to include
// o. This is the Guttman insertion heuristic.
func (m MBR) Enlargement(o MBR) float64 {
	return m.Union(o).Volume() - m.Volume()
}

// DistSqToPoint returns the squared Euclidean distance from p to the
// nearest point of m (0 when p is inside m). This is the "mindist" of
// the k-NN literature; callers compare squared distances to avoid a
// sqrt per candidate. An empty box is infinitely far away.
func (m MBR) DistSqToPoint(p Vec3) float64 {
	if m.Empty() {
		return math.Inf(1)
	}
	var d float64
	for i := 0; i < 3; i++ {
		v := p.Axis(i)
		if lo := m.Min.Axis(i); v < lo {
			d += (lo - v) * (lo - v)
		} else if hi := m.Max.Axis(i); v > hi {
			d += (v - hi) * (v - hi)
		}
	}
	return d
}

// DistToPoint returns the Euclidean distance from p to the nearest
// point of m (0 when p is inside m).
func (m MBR) DistToPoint(p Vec3) float64 {
	return math.Sqrt(m.DistSqToPoint(p))
}

// DistSq returns the squared Euclidean distance between the nearest
// pair of points of m and o (0 when the boxes intersect). An empty box
// is infinitely far from everything.
func (m MBR) DistSq(o MBR) float64 {
	if m.Empty() || o.Empty() {
		return math.Inf(1)
	}
	var d float64
	for i := 0; i < 3; i++ {
		if g := o.Min.Axis(i) - m.Max.Axis(i); g > 0 {
			d += g * g
		} else if g := m.Min.Axis(i) - o.Max.Axis(i); g > 0 {
			d += g * g
		}
	}
	return d
}

// String implements fmt.Stringer.
func (m MBR) String() string {
	return fmt.Sprintf("[%v - %v]", m.Min, m.Max)
}
