// Fixtures for the reflectsort analyzer, in a package named like an
// engine package: package sort's reflection- and interface-driven
// entry points are flagged, the typed ones and package slices are not.
package shard

import (
	"cmp"
	"slices"
	"sort"
)

type item struct {
	key  float64
	seq  uint64
	body [5]uint64
}

func bySlice(items []item) {
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key }) // want `sort.Slice in an engine package`
}

func bySliceStable(items []item) {
	sort.SliceStable(items, func(i, j int) bool { return items[i].key < items[j].key }) // want `sort.SliceStable in an engine package`
}

type bySeq []item

func (s bySeq) Len() int           { return len(s) }
func (s bySeq) Less(i, j int) bool { return s[i].seq < s[j].seq }
func (s bySeq) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func byInterface(items []item) {
	sort.Sort(bySeq(items))   // want `sort.Sort in an engine package`
	sort.Stable(bySeq(items)) // want `sort.Stable in an engine package`
}

// Typed sorts of package sort move no element through reflection.
func typed(keys []float64, ids []int) int {
	sort.Float64s(keys)
	sort.Ints(ids)
	return sort.SearchInts(ids, 7)
}

// Package slices is what the engine uses.
func generic(items []item) {
	slices.SortFunc(items, func(a, b item) int { return cmp.Compare(a.seq, b.seq) })
	slices.SortStableFunc(items, func(a, b item) int { return cmp.Compare(a.key, b.key) })
}

// A local identifier named sort is not the package.
type sorter struct{}

func (sorter) Slice(items []item, less func(i, j int) bool) {}

func shadowed(items []item) {
	sort := sorter{}
	sort.Slice(items, func(i, j int) bool { return false })
}

func suppressed(items []item) {
	//lint:ignore reflectsort fixture: a justified directive suppresses the finding
	sort.Slice(items, func(i, j int) bool { return items[i].seq < items[j].seq })
}
