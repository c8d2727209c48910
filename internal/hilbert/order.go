package hilbert

import (
	"cmp"

	"flat/internal/geom"
	"flat/internal/str"
)

// SortElements stably reorders els along the 3D Hilbert curve of their
// MBR centers, quantized over world: the Hilbert R-tree packer's order
// (Kamel & Faloutsos), and the order of a shard no larger than a page.
// The shard split itself selects by rank, without this sort
// (str.SplitRanks). The keys are computed once; the sort is
// str.Sorter, radix-sorting on the key itself, whose result is the
// permutation sort.SliceStable gives for key order.
func SortElements(els []geom.Element, world geom.MBR) {
	q := NewQuantizer(world)
	keys := make([]uint64, len(els))
	for i := range els {
		keys[i] = q.KeyOfMBR(els[i].Box)
	}
	str.NewSorter[geom.Element](cmp.Compare[uint64], str.Uint64Prefix).Sort(els, func(i int) uint64 { return keys[i] })
}
