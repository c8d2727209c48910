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
// Both cut every x and y slab at a page boundary (slabSize), so n items
// make ceil(n/capacity) groups and every group but the last is full, as
// in the STR paper: FLAT's partitions stay the STR R-tree's leaves.
// Pack (tree.go) stacks Tile's groups into an in-memory tree, the one
// the engine searches wherever a box set is built and probed in memory:
// the staged delta's runs and Build's neighbor join.
//
// Every order either of them — or any other build-time pass: the
// Hilbert and PR-tree packers — imposes goes through one keyed stable
// sort kernel, Sorter (sort.go), which returns exactly the permutation
// sort.SliceStable would. A Sorter takes, beside the key comparison, a
// monotone uint64 prefix of the key: keys that compare equal share a
// prefix, and a smaller prefix means a smaller key. It radix-sorts on
// the prefix and compares keys only where prefixes tie. The Hilbert
// order's prefix is its key (Uint64Prefix); the STR passes' is their
// lead coordinate's and the PR-tree's is its coordinate's
// order-preserving float bits (FloatPrefix). Where a pass needs only
// which run of a sorted order each item falls in — STR's x and y slabs,
// the shard split — SplitRanks (rank.go) selects the runs without the
// sort.
package str

import (
	"math"

	"flat/internal/geom"
)

// Tile partitions items into ceil(n/capacity) groups of capacity items,
// the last possibly shorter, using one sort-tile-recursive pass over the
// three dimensions of the items' centers. Groups are returned in STR
// order (x-major, then y, then z), which places spatially close items in
// the same or nearby groups.
//
// Tile reorders items in place, each item moved once, and returns
// subslices of it.
func Tile[T any](items []T, center func(T) geom.Vec3, capacity int) [][]T {
	groups, _ := tile(items, func(i int) geom.Vec3 { return center(items[i]) }, capacity, geom.MBR{})
	return groups
}

// tile is Tile, and PartitionElements' STR pass: it also returns each
// group's cell, the slab box the cuts assign it in world. center is
// called once per item; the passes order positions (order).
func tile[T any](items []T, center func(i int) geom.Vec3, capacity int, world geom.MBR) ([][]T, []geom.MBR) {
	if capacity <= 0 {
		panic("str: capacity must be positive")
	}
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	if n <= capacity {
		return [][]T{items}, []geom.MBR{world}
	}
	pn := sliceCount(n, capacity)
	o := newOrder(n, center)
	var cells []geom.MBR
	xRuns, xCuts := o.slabs(o.perm, 0, slabSize(n, pn, capacity), false, world.Min.X, world.Max.X)
	for xi, xs := range xRuns {
		yRuns, yCuts := o.slabs(xs, 1, slabSize(len(xs), pn, capacity), false, world.Min.Y, world.Max.Y)
		for yi, ys := range yRuns {
			zRuns, zCuts := o.slabs(ys, 2, capacity, true, world.Min.Z, world.Max.Z)
			for zi := range zRuns {
				cells = append(cells, geom.MBR{
					Min: geom.V(xCuts[xi], yCuts[yi], zCuts[zi]),
					Max: geom.V(xCuts[xi+1], yCuts[yi+1], zCuts[zi+1]),
				})
			}
		}
	}
	permute(items, o.perm)
	// Every y slab but the last holds whole pages (slabSize), so the
	// pages of the whole order are the z runs.
	return Chunks(items, capacity), cells
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

// order is the state of one STR pass: every item's center, by input
// position, computed once, and perm, the positions in their current
// order, which the passes permute. Ordering positions instead of items
// keeps each move to one word; the caller moves every item once, with
// permute, when the passes are done.
//
// The x and y passes only cut slabs (slabs): the pass after each sorts
// every slab again, so a slab needs the members a sort would give it,
// not their order. Only the z pass, whose order is the pages', sorts.
// The result is the one sorting every pass gives: a stable sort keeps in
// the order it is given only the positions whose keys tie — equal
// centers, since a key is the whole center — and those stay in input
// order whether the pass before sorted them or not.
type order struct {
	centers []geom.Vec3
	perm    []int
	sortAll bool // some center is not finite: slabs sorts (see there)
	sorter  *Sorter[int, axisKey]
}

func newOrder(n int, center func(i int) geom.Vec3) *order {
	o := &order{
		centers: make([]geom.Vec3, n),
		perm:    make([]int, n),
		sorter:  NewSorter[int](compareAxisKeys, axisKeyPrefix),
	}
	for i := range o.centers {
		c := center(i)
		o.centers[i] = c
		o.perm[i] = i
		o.sortAll = o.sortAll || c.X-c.X != 0 || c.Y-c.Y != 0 || c.Z-c.Z != 0
	}
	return o
}

// key is position p's sort key for a pass along axis: its center, the
// axis first, then the axes after it.
func (o *order) key(p, axis int) axisKey {
	c := o.centers[p]
	return axisKey{c.Axis(axis), c.Axis((axis + 1) % 3), c.Axis((axis + 2) % 3)}
}

// sortByAxis stably sorts run, a run of positions, by their keys along
// axis.
func (o *order) sortByAxis(run []int, axis int) {
	o.sorter.Sort(run, func(i int) axisKey { return o.key(run[i], axis) })
}

// slabBuckets is how many equal parts of a run's extent along an axis
// bucket its positions for SplitRanks.
const slabBuckets = 2048

// slabs cuts run, a run of positions, into the runs of size positions of
// run stably sorted along axis (the key is the whole center, the axis
// first), and returns them with their cut coordinates: lo, the axis
// coordinate of the center that begins each run after the first in
// sorted order, and hi, each raised to the one before it so that no cell
// is inverted when centers sit outside the world box [lo, hi] (callers
// should prevent this, but stay safe).
//
// Unless sorted is set — the z pass, whose order is the pages' — it
// selects each run's members by rank (SplitRanks) and keeps run's order
// in each. Keys with a NaN have no order to select by, and a sort by
// them leaves more than equal centers in the order it is given; an
// infinite coordinate has no place between the run's extremes to bucket
// it by. Under either, every pass sorts, as every pass once did.
func (o *order) slabs(run []int, axis, size int, sorted bool, lo, hi float64) ([][]int, []float64) {
	var firsts []int // the positions that begin runs 1 and up, sorted
	switch {
	case sorted || o.sortAll:
		o.sortByAxis(run, axis)
		for s := size; s < len(run); s += size {
			firsts = append(firsts, run[s])
		}
	case size < len(run):
		// A position's bucket is its coordinate's place between the run's
		// least and greatest: floor((v − least)·scale) is monotone in v.
		// An extent that overflows, or one so small that the scale does,
		// puts every position in bucket 0.
		least, most := math.Inf(1), math.Inf(-1)
		for _, p := range run {
			least, most = min(least, o.centers[p].Axis(axis)), max(most, o.centers[p].Axis(axis))
		}
		scale := slabBuckets / (most - least)
		if !(scale < math.Inf(1)) {
			scale = 0
		}
		tags := make([]uint16, len(run))
		for i, p := range run {
			tags[i] = uint16(min((o.centers[p].Axis(axis)-least)*scale, slabBuckets-1))
		}
		perm, at := SplitRanks(tags, slabBuckets, size, func(i int) axisKey { return o.key(run[i], axis) }, compareAxisKeys)
		for _, i := range at {
			firsts = append(firsts, run[i])
		}
		// Each slab lists its indices in order, so this gather reads run
		// in a few forward streams.
		for j, i := range perm {
			perm[j] = run[i]
		}
		copy(run, perm)
	}
	cuts := append(append([]float64{lo}, make([]float64, len(firsts))...), hi)
	for s, p := range firsts {
		cuts[s+1] = o.centers[p].Axis(axis)
	}
	for s := 1; s < len(cuts); s++ {
		if cuts[s] < cuts[s-1] {
			cuts[s] = cuts[s-1]
		}
	}
	return Chunks(run, size), cuts
}

// slabSize is the size of every slab but the last when n items are cut
// into at most parts slabs of a whole number of pages each:
// ceil(ceil(n/capacity)/parts) pages of capacity items. Cutting every
// slab at a page boundary is what makes every group of an STR pass but
// its last a full page, as in the STR paper; at capacity 1 it is plain
// ceil(n/parts)-item slabs.
func slabSize(n, parts, capacity int) int {
	pages := (n + capacity - 1) / capacity
	return (pages + parts - 1) / parts * capacity
}

// Chunks divides items into contiguous runs of at most size items.
func Chunks[T any](items []T, size int) [][]T {
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
// STR pass over els that yields Tile's groups (full pages but the last)
// together with their page MBRs and partition MBRs. world must contain
// every element center; the returned cells tile world exactly (no empty
// space), and each PartitionMBR contains its PageMBR.
//
// els is reordered in place, each element moved once, as in Tile;
// Partition.Elements are subslices of it.
func PartitionElements(els []geom.Element, capacity int, world geom.MBR) []Partition {
	groups, cells := tile(els, func(i int) geom.Vec3 { return els[i].Box.Center() }, capacity, world)
	parts := make([]Partition, len(groups))
	for i, g := range groups {
		page := geom.ElementsMBR(g)
		parts[i] = Partition{Elements: g, PageMBR: page, Cell: cells[i], PartitionMBR: cells[i].Union(page)}
	}
	return parts
}
