package str

import (
	"cmp"
	"slices"
)

// Sorter is the keyed stable sort kernel behind every build-time order
// of the repository: the STR axis passes of Tile and PartitionElements,
// the Hilbert order of the shard split and the Hilbert R-tree, and the
// PR-tree's priority and median passes.
//
// Sort computes each item's key once, sorts (key, input position) pairs
// — ties on the key fall back to the position, so the pair order is
// total — and moves the items into place through one scratch buffer.
// The result is, by construction, the permutation sort.SliceStable
// returns for the comparator "key(a) orders before key(b)": page files
// and page-read counts do not depend on which of the two sorted them.
// What it saves is the work: no reflection swapper, no key recomputed
// per comparison, and items move once instead of once per merge step.
//
// A Sorter owns its pair and scratch buffers, which grow to the longest
// slice it has sorted: a caller that sorts a slice and then nested
// sub-runs of it allocates them once. It is not safe for concurrent use.
type Sorter[T, K any] struct {
	compare func(a, b K) int
	pairs   []keyed[K]
	scratch []T
}

// keyed is one item's key and the position it held before the sort.
type keyed[K any] struct {
	key K
	pos int
}

// NewSorter returns a sorter under the given three-way key comparison
// (negative when a orders before b).
func NewSorter[T, K any](compare func(a, b K) int) *Sorter[T, K] {
	return &Sorter[T, K]{compare: compare}
}

// Sort stably reorders items by key, where key(i) is the key of
// items[i] as it stands when Sort is called.
func (s *Sorter[T, K]) Sort(items []T, key func(i int) K) {
	n := len(items)
	if n > len(s.pairs) {
		s.pairs, s.scratch = make([]keyed[K], n), make([]T, n)
	}
	pairs, scratch := s.pairs[:n], s.scratch[:n]
	for i := range pairs {
		pairs[i] = keyed[K]{key: key(i), pos: i}
	}
	slices.SortFunc(pairs, func(a, b keyed[K]) int {
		if c := s.compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for i, p := range pairs {
		scratch[i] = items[p.pos]
	}
	copy(items, scratch)
}
