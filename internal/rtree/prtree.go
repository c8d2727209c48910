package rtree

import (
	"cmp"

	"flat/internal/geom"
	"flat/internal/str"
)

// packPR groups elements into leaf pages using the pseudo-PR-tree
// construction of Arge, de Berg, Haverkort and Yi (SIGMOD'04). The real
// PR-tree is obtained by applying the same grouping to each level's node
// MBRs (see packEntriesPR / buildAbove).
//
// At every recursion step the algorithm extracts 2d = 6 "priority
// leaves" — the B rectangles extreme in each of x-min, y-min, z-min
// (smallest) and x-max, y-max, z-max (largest) — and then splits the
// remaining rectangles in two halves by the median of their center along
// a round-robin axis. Priority leaves group extreme rectangles together,
// which is what gives the PR-tree its robustness on skewed and
// high-aspect-ratio data.
//
// The repeated sorting makes construction markedly more expensive than
// STR or Hilbert packing — the behaviour Figure 10 of the paper reports.
func packPR(els []geom.Element, capacity int) [][]geom.Element {
	return prGroup(els, func(e geom.Element) geom.MBR { return e.Box }, capacity)
}

// packEntriesPR groups node entries for the next PR-tree level.
func packEntriesPR(entries []NodeEntry, capacity int) [][]NodeEntry {
	return prGroup(entries, func(e NodeEntry) geom.MBR { return e.Box }, capacity)
}

// priority-extraction criteria indexes.
const (
	critMinX = iota
	critMinY
	critMinZ
	critMaxX
	critMaxY
	critMaxZ
	numCriteria
)

// criterionKey returns the sort key of box m under a priority
// criterion: ascending order of the key is "most extreme first", so the
// Max criteria negate their coordinate.
func criterionKey(m geom.MBR, crit int) float64 {
	switch crit {
	case critMinX:
		return m.Min.X
	case critMinY:
		return m.Min.Y
	case critMinZ:
		return m.Min.Z
	case critMaxX:
		return -m.Max.X
	case critMaxY:
		return -m.Max.Y
	default:
		return -m.Max.Z
	}
}

func prGroup[T any](items []T, box func(T) geom.MBR, capacity int) [][]T {
	var out [][]T
	emit := func(group []T) {
		g := make([]T, len(group))
		copy(g, group)
		out = append(out, g)
	}

	// One sorter (str.Sorter: the sort.SliceStable permutation, radix on
	// the float key's order-preserving bits) serves every pass of the
	// recursion.
	sorter := str.NewSorter[T](cmp.Compare[float64], str.FloatPrefix)
	var rec func(rest []T, depth int)
	rec = func(rest []T, depth int) {
		if len(rest) == 0 {
			return
		}
		if len(rest) <= capacity {
			emit(rest)
			return
		}
		// Extract up to six priority leaves of extreme rectangles.
		for crit := 0; crit < numCriteria && len(rest) > capacity; crit++ {
			sorter.Sort(rest, func(i int) float64 { return criterionKey(box(rest[i]), crit) })
			emit(rest[:capacity])
			rest = rest[capacity:]
		}
		if len(rest) <= capacity {
			if len(rest) > 0 {
				emit(rest)
			}
			return
		}
		// Median split on the round-robin axis of the rectangle centers.
		axis := depth % 3
		sorter.Sort(rest, func(i int) float64 { return box(rest[i]).Center().Axis(axis) })
		mid := len(rest) / 2
		rec(rest[:mid], depth+1)
		rec(rest[mid:], depth+1)
	}
	rec(items, 0)
	return out
}
