package str

import (
	"cmp"
	"slices"
)

// SplitRanks selects what a stable sort by key cut into size-item runs
// would give, without the sort: perm lists the items run by run, run r
// holding the items of ranks [r·size, (r+1)·size) under compare, ties
// broken by index, in index order. firsts[r-1] is the item that begins
// run r in key order, for each run r after the first.
//
// tags[i] is item i's bucket, below buckets, and the buckets follow the
// order: every item of a lower bucket orders before every item of a
// higher one. Counting the buckets places each cut rank in one; only the
// items of those buckets are keyed (twice: to sort them and find the
// cut items, then to compare them with the cuts).
func SplitRanks[K any](tags []uint16, buckets, size int, key func(i int) K, compare func(a, b K) int) (perm, firsts []int) {
	counts := make([]int, buckets)
	for _, b := range tags {
		counts[b]++
	}
	// Walk the buckets in order: before[b] is the number of cuts in the
	// buckets below b, and split[b] whether a cut falls in b; each cut is
	// found at a rank among the items of such buckets.
	before := make([]int, buckets)
	split := make([]bool, buckets)
	var ranks []int
	for b, rank, splitRank := 0, 0, 0; b < buckets; b++ {
		before[b] = len(ranks)
		for r := (len(ranks) + 1) * size; r < rank+counts[b]; r += size {
			ranks = append(ranks, splitRank+r-rank)
			split[b] = true
		}
		if split[b] {
			splitRank += counts[b]
		}
		rank += counts[b]
	}
	type item struct {
		key K
		i   int
	}
	byRank := func(a, b item) int { return cmp.Or(compare(a.key, b.key), cmp.Compare(a.i, b.i)) }
	var cands []item
	for i, b := range tags {
		if split[b] {
			cands = append(cands, item{key(i), i})
		}
	}
	slices.SortFunc(cands, byRank)
	cuts := make([]item, len(ranks))
	firsts = make([]int, len(ranks))
	for c, r := range ranks {
		cuts[c], firsts[c] = cands[r], cands[r].i
	}

	// Each item's run, then its place: after the run's items of lower
	// index.
	next := make([]int, len(cuts)+1)
	for r := range next {
		next[r] = r * size
	}
	perm = make([]int, len(tags))
	for i, b := range tags {
		r := before[b]
		if split[b] {
			it := item{key(i), i}
			for r < len(cuts) && byRank(it, cuts[r]) >= 0 {
				r++
			}
		}
		perm[next[r]] = i
		next[r]++
	}
	return perm, firsts
}

// permute reorders items to perm: items[i] becomes the item that stood
// at perm[i]. It follows perm's cycles, so each item moves once and no
// scratch copy is made; perm is used up (every entry left negative).
func permute[T any](items []T, perm []int) {
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		first := items[i]
		for j := i; ; {
			k := perm[j]
			perm[j] = -1
			if k == i {
				items[j] = first
				break
			}
			items[j] = items[k]
			j = k
		}
	}
}
