package hilbert

import (
	"cmp"
	"runtime"
	"sync"

	"flat/internal/geom"
	"flat/internal/str"
)

// SortElements stably reorders els along the 3D Hilbert curve of their
// MBR centers, quantized over world — the one Hilbert-order sort of the
// repository, behind the shard split and the Hilbert R-tree packer.
//
// The keys are computed once, in contiguous chunks over GOMAXPROCS
// goroutines: KeyOfMBR is a pure function and each goroutine writes its
// own indices, so the keys — and with them the order — do not depend on
// how the input was chunked. The sort itself is str.Sorter, radix-sorting
// on the key itself, whose result is the permutation sort.SliceStable
// gives for key order.
func SortElements(els []geom.Element, world geom.MBR) {
	q := NewQuantizer(world)
	keys := make([]uint64, len(els))
	workers := min(runtime.GOMAXPROCS(0), len(els))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(els)/workers, (w+1)*len(els)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				keys[i] = q.KeyOfMBR(els[i].Box)
			}
		}()
	}
	wg.Wait()
	str.NewSorter[geom.Element](cmp.Compare[uint64], str.Uint64Prefix).Sort(els, func(i int) uint64 { return keys[i] })
}
