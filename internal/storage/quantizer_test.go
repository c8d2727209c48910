package storage_test

import (
	"math"
	"math/rand"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// TestQuantizerContainsCellBounds encodes coordinates one ulp below, at
// and one ulp above the decoded bounds of random cells, where the
// division that picks a cell can round across a cell edge: the decoded
// min must never lie above the coordinate, nor the decoded max below it.
// Uniformly random coordinates almost never land there, so random boxes
// alone do not exercise the rounding guards in Cells. The reference
// boxes have non-dyadic extents of several magnitudes, so their steps
// are inexact.
func TestQuantizerContainsCellBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	probes, bad := 0, 0
	for range 200 {
		var lo, hi [3]float64
		for a := range lo {
			scale := math.Pow(10, float64(rng.Intn(9)-3))
			lo[a] = (rng.Float64() - 0.5) * scale
			hi[a] = lo[a] + (0.1+rng.Float64())*scale
		}
		ref := geom.MBR{Min: geom.V(lo[0], lo[1], lo[2]), Max: geom.V(hi[0], hi[1], hi[2])}
		q := storage.NewQuantizer(ref)
		for range 100 {
			cell := rng.Uint32()
			for a := range 3 {
				for _, edge := range []float64{q.DecodeMin(a, cell), q.DecodeMax(a, cell)} {
					for _, x := range []float64{math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1))} {
						if x < lo[a] || x > hi[a] {
							continue
						}
						c := ref.Center()
						box := geom.MBR{Min: withAxis(c, a, x), Max: withAxis(c, a, x)}
						got := q.Box(q.Cells(box))
						probes++
						if got.Min.Axis(a) > x || got.Max.Axis(a) < x {
							if bad++; bad <= 3 {
								t.Errorf("reference %v axis %d: %v decodes to [%v, %v]", ref, a, x, got.Min.Axis(a), got.Max.Axis(a))
							}
						}
					}
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d probes decode to a range that does not contain them", bad, probes)
	}
}

// withAxis returns v with its axis a coordinate replaced by x.
func withAxis(v geom.Vec3, a int, x float64) geom.Vec3 {
	switch a {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	default:
		v.Z = x
	}
	return v
}
