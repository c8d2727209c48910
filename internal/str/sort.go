package str

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Sorter is the keyed stable sort kernel behind every build-time order
// of the repository: the STR axis passes of Tile and PartitionElements,
// the Hilbert order of the shard split and the Hilbert R-tree, and the
// PR-tree's priority and median passes.
//
// A Sorter is made from a three-way comparison of keys and a monotone
// uint64 prefix of a key, which must agree with the comparison:
//
//	compare(a, b) < 0      ⇒  prefix(a) ≤ prefix(b)
//	prefix(a) < prefix(b)  ⇒  compare(a, b) < 0
//
// so keys that compare equal share a prefix, and distinct prefixes alone
// settle the order (FloatPrefix and Uint64Prefix are such prefixes for
// the two scalar key types). A key with no place in a total order — a
// NaN — reports false instead of a prefix.
//
// Sort is an LSD radix sort with a comparison pass over its ties. It
// rebases the prefixes on their minimum and shifts them right by the
// least amount that fits their range in 32 bits, sorts (prefix, input
// position) records on that in four 8-bit passes, skipping any pass whose
// digit is the same for every record, and then sorts each run of equal
// shifted prefixes by prefix, by the comparison where prefixes tie, and
// by input position. Below radixMin items, or when any key reports no
// prefix, the whole input is one such run. Items move into place once,
// through one scratch buffer.
//
// The result is, by construction, the permutation sort.SliceStable
// returns for the comparator "key(a) orders before key(b)": the radix
// passes only order records whose prefixes already differ, and every
// order they leave open is decided by the comparison and the position.
// Page files and page-read counts do not depend on which of the two
// sorted them.
//
// A Sorter owns its buffers — two 16-byte record buffers and the item
// scratch — which grow to the longest slice it has sorted: a caller that
// sorts a slice and then nested sub-runs of it allocates them once, and
// a sort no longer than one before it allocates nothing. It is not safe
// for concurrent use.
type Sorter[T, K any] struct {
	compare   func(a, b K) int
	prefix    func(K) (uint64, bool)
	recs, tmp []record
	scratch   []T
}

// record is one item's prefix and the position it held before the sort.
type record struct {
	prefix uint64
	pos    int
}

const (
	// radixPasses 8-bit digits cover the 32-bit shifted prefix.
	radixPasses = 4
	// radixMin is the length below which a comparison sort of the whole
	// input beats four counting passes over it.
	radixMin = 256
)

// NewSorter returns a sorter under the given three-way key comparison
// (negative when a orders before b) and its monotone prefix (see
// Sorter).
func NewSorter[T, K any](compare func(a, b K) int, prefix func(K) (uint64, bool)) *Sorter[T, K] {
	return &Sorter[T, K]{compare: compare, prefix: prefix}
}

// FloatPrefix is the monotone prefix of a float64 key under cmp.Compare
// or the < and > operators: its bits, reordered so that unsigned order
// is numeric order, with −0 folded onto +0, which compares equal to it.
// NaN has no prefix.
func FloatPrefix(f float64) (uint64, bool) {
	switch {
	case f != f:
		return 0, false
	case f == 0:
		return 1 << 63, true
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b, true
	}
	return b | 1<<63, true
}

// Uint64Prefix is the monotone prefix of a uint64 key: the key itself.
func Uint64Prefix(k uint64) (uint64, bool) { return k, true }

// Sort stably reorders items by key, where key(i) is the key of
// items[i] as it stands when Sort is called. key is called once per item
// for its prefix, and again wherever a comparison is needed, before any
// item moves.
func (s *Sorter[T, K]) Sort(items []T, key func(i int) K) {
	n := len(items)
	if n > len(s.recs) {
		s.recs, s.tmp, s.scratch = make([]record, n), make([]record, n), make([]T, n)
	}
	recs, lo, shift := s.radix(n, key)
	for i, j := 0, 0; i < n; i = j {
		k := (recs[i].prefix - lo) >> shift
		for j = i + 1; j < n && (recs[j].prefix-lo)>>shift == k; j++ {
		}
		if j-i > 1 {
			s.sortRun(recs[i:j], key)
		}
	}
	scratch := s.scratch[:n]
	for i, r := range recs {
		scratch[i] = items[r.pos]
	}
	copy(items, scratch)
}

// radix returns the n items' records, stably ordered on (prefix − lo) >>
// shift, in whichever record buffer the last pass wrote. Below radixMin
// items, or when a key has no prefix, nothing is sorted and shift is 64,
// which makes every record's shifted prefix 0: the input is one run. A
// key without a prefix also zeroes every prefix, so that run is ordered
// by the comparison alone.
func (s *Sorter[T, K]) radix(n int, key func(i int) K) (recs []record, lo uint64, shift int) {
	recs, tmp := s.recs[:n], s.tmp[:n]
	lo, hi, ok := uint64(math.MaxUint64), uint64(0), true
	for i := 0; ok && i < n; i++ {
		var p uint64
		p, ok = s.prefix(key(i))
		recs[i] = record{prefix: p, pos: i}
		lo, hi = min(lo, p), max(hi, p)
	}
	if !ok {
		for i := range recs {
			recs[i] = record{pos: i}
		}
	}
	if !ok || n < radixMin {
		return recs, 0, 64
	}
	shift = max(bits.Len64(hi-lo)-32, 0)
	var counts [radixPasses][256]int
	for _, r := range recs {
		k := (r.prefix - lo) >> shift
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte((recs[0].prefix-lo)>>shift>>(8*d))] == n {
			continue
		}
		sum := 0
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for _, r := range recs {
			b := byte((r.prefix - lo) >> shift >> (8 * d))
			tmp[c[b]] = r
			c[b]++
		}
		recs, tmp = tmp, recs
	}
	return recs, lo, shift
}

// sortRun orders one run of records the radix passes could not tell
// apart: by prefix, by the comparison of their keys where prefixes tie,
// and by input position.
func (s *Sorter[T, K]) sortRun(run []record, key func(i int) K) {
	slices.SortFunc(run, func(a, b record) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := s.compare(key(a.pos), key(b.pos)); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
}
