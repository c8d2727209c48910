// Package str implements Sort-Tile-Recursive partitioning (Leutenegger,
// Lopez & Edgington, ICDE'97) for 3D data.
//
// STR appears twice in the paper:
//
//   - as the bulkloading strategy of the STR R-tree baseline, and
//   - as the first half of FLAT's Algorithm 1, which partitions the data
//     set into disk-page-sized groups and additionally derives, for every
//     group, the space-tiling *partition cell* whose union covers the
//     entire data space (the "no empty space" property of Section V).
//
// The generic Tile function serves the first use; PartitionElements
// serves the second, returning both the element groups and their cells.
// Pack (tree.go) stacks Tile's groups into an in-memory tree, the one
// the engine searches wherever a box set is built and probed in memory:
// the staged delta's runs and Build's neighbor join.
//
// Every order either of them — or any other build-time pass: the shard
// split, the Hilbert and PR-tree packers — imposes goes through one
// keyed stable sort kernel, Sorter (sort.go), which returns exactly the
// permutation sort.SliceStable would. A Sorter takes, beside the key
// comparison, a monotone uint64 prefix of the key: keys that compare
// equal share a prefix, and a smaller prefix means a smaller key. It
// radix-sorts on the prefix and compares keys only where prefixes tie.
// The Hilbert order's prefix is its key (Uint64Prefix); the STR passes'
// is their lead coordinate's and the PR-tree's is its coordinate's
// order-preserving float bits (FloatPrefix).
package str

import (
	"math"

	"flat/internal/geom"
)

// Tile partitions items into groups of at most capacity items using one
// sort-tile-recursive pass over the three dimensions of the items'
// centers. Groups are returned in STR order (x-major, then y, then z),
// which places spatially close items in the same or nearby groups.
//
// Tile reorders items in place and returns subslices of it.
func Tile[T any](items []T, center func(T) geom.Vec3, capacity int) [][]T {
	if capacity <= 0 {
		panic("str: capacity must be positive")
	}
	n := len(items)
	if n == 0 {
		return nil
	}
	if n <= capacity {
		return [][]T{items}
	}
	pn := sliceCount(n, capacity)

	sorter := NewSorter[T](compareAxisKeys, axisKeyPrefix)
	sortByAxis(sorter, items, center, 0)
	var groups [][]T
	for _, xs := range split(items, pn) {
		sortByAxis(sorter, xs, center, 1)
		for _, ys := range split(xs, pn) {
			sortByAxis(sorter, ys, center, 2)
			groups = append(groups, chunks(ys, capacity)...)
		}
	}
	return groups
}

// sliceCount returns the paper's pn = ceil((n/capacity)^(1/3)): the
// number of slabs per dimension so that pn^3 final tiles of size capacity
// can hold all n items.
func sliceCount(n, capacity int) int {
	pages := (n + capacity - 1) / capacity
	pn := int(math.Ceil(math.Cbrt(float64(pages))))
	if pn < 1 {
		pn = 1
	}
	return pn
}

// axisKey is an STR pass's sort key: an item's center coordinates
// rotated so the pass's axis comes first.
type axisKey [3]float64

func compareAxisKeys(a, b axisKey) int {
	for k := range a {
		if a[k] < b[k] {
			return -1
		}
		if a[k] > b[k] {
			return 1
		}
	}
	return 0
}

// axisKeyPrefix is compareAxisKeys' monotone prefix: the lead
// coordinate's. A NaN anywhere in the key leaves it without one, since
// the comparison then orders nothing consistently.
func axisKeyPrefix(k axisKey) (uint64, bool) {
	if k[1] != k[1] || k[2] != k[2] {
		return 0, false
	}
	return FloatPrefix(k[0])
}

// sortByAxis stably sorts items by the given axis of their center,
// breaking ties by the next axes so the order is deterministic.
func sortByAxis[T any](s *Sorter[T, axisKey], items []T, center func(T) geom.Vec3, axis int) {
	s.Sort(items, func(i int) axisKey {
		c := center(items[i])
		return axisKey{c.Axis(axis), c.Axis((axis + 1) % 3), c.Axis((axis + 2) % 3)}
	})
}

// split divides items into exactly parts contiguous, nearly equal runs
// (the last may be shorter; empty runs are dropped).
func split[T any](items []T, parts int) [][]T {
	n := len(items)
	size := (n + parts - 1) / parts
	if size < 1 {
		size = 1
	}
	return chunks(items, size)
}

// chunks divides items into contiguous runs of at most size items.
func chunks[T any](items []T, size int) [][]T {
	var out [][]T
	for len(items) > size {
		out = append(out, items[:size])
		items = items[size:]
	}
	if len(items) > 0 {
		out = append(out, items)
	}
	return out
}

// Partition is one output group of PartitionElements: a page worth of
// elements plus the derived geometry FLAT needs.
type Partition struct {
	// Elements is the group of spatial elements packed on one object page
	// (a subslice of the input slice, which PartitionElements reorders).
	Elements []geom.Element
	// PageMBR is the tight bound of Elements (the paper's "page MBR").
	PageMBR geom.MBR
	// Cell is the space-tiling partition MBR before stretching: the slab
	// box assigned to this group by the STR cuts. The union of all cells
	// is exactly the world box.
	Cell geom.MBR
	// PartitionMBR is Cell stretched to contain PageMBR, satisfying the
	// paper's second partitioning property (Section V-B, Figure 9).
	PartitionMBR geom.MBR
}

// PartitionElements runs the paper's Algorithm 1 partitioning step: an
// STR pass over els that yields page-sized element groups together with
// their page MBRs and partition MBRs. world must contain every element
// center; the returned cells tile world exactly (no empty space), and
// each PartitionMBR contains its PageMBR.
//
// els is reordered in place; Partition.Elements are subslices of it.
func PartitionElements(els []geom.Element, capacity int, world geom.MBR) []Partition {
	if capacity <= 0 {
		panic("str: capacity must be positive")
	}
	n := len(els)
	if n == 0 {
		return nil
	}
	center := func(e geom.Element) geom.Vec3 { return e.Box.Center() }
	if n <= capacity {
		page := geom.ElementsMBR(els)
		return []Partition{{
			Elements:     els,
			PageMBR:      page,
			Cell:         world,
			PartitionMBR: world.Union(page),
		}}
	}
	pn := sliceCount(n, capacity)

	var parts []Partition
	sorter := NewSorter[geom.Element](compareAxisKeys, axisKeyPrefix)
	sortByAxis(sorter, els, center, 0)
	xRuns := split(els, pn)
	xCuts := runCuts(xRuns, center, 0, world.Min.X, world.Max.X)
	for xi, xs := range xRuns {
		sortByAxis(sorter, xs, center, 1)
		yRuns := split(xs, pn)
		yCuts := runCuts(yRuns, center, 1, world.Min.Y, world.Max.Y)
		for yi, ys := range yRuns {
			sortByAxis(sorter, ys, center, 2)
			zRuns := chunks(ys, capacity)
			zCuts := runCuts(zRuns, center, 2, world.Min.Z, world.Max.Z)
			for zi, zs := range zRuns {
				cell := geom.MBR{
					Min: geom.V(xCuts[xi], yCuts[yi], zCuts[zi]),
					Max: geom.V(xCuts[xi+1], yCuts[yi+1], zCuts[zi+1]),
				}
				page := geom.ElementsMBR(zs)
				parts = append(parts, Partition{
					Elements:     zs,
					PageMBR:      page,
					Cell:         cell,
					PartitionMBR: cell.Union(page),
				})
			}
		}
	}
	return parts
}

// runCuts computes the axis cut coordinates separating consecutive runs:
// cuts[i] and cuts[i+1] bound run i. The first and last cuts are the
// world bounds so that the runs tile the full extent; interior cuts fall
// on the center coordinate of the first element of the following run.
func runCuts[T any](runs [][]T, center func(T) geom.Vec3, axis int, lo, hi float64) []float64 {
	cuts := make([]float64, len(runs)+1)
	cuts[0] = lo
	for i := 1; i < len(runs); i++ {
		cuts[i] = center(runs[i][0]).Axis(axis)
	}
	cuts[len(runs)] = hi
	// Guard against inverted cells when element centers sit outside the
	// supplied world box (callers should prevent this, but stay safe).
	for i := 1; i <= len(runs); i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	return cuts
}
