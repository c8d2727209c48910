package str

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flat/internal/geom"
)

// tagged is a sort item that remembers where it started, so two sorts
// of one input can be compared position by position.
type tagged struct {
	tag int
	key axisKey
}

// tiedKeys draws n keys from a handful of values per coordinate — most
// comparisons tie on one or more coordinates, many on all three — with
// both zeros and both infinities among them.
func tiedKeys(r *rand.Rand, n int) []tagged {
	vals := []float64{math.Copysign(0, -1), 0, 1, -1, 2.5, math.Inf(1), math.Inf(-1), 1e-300}
	items := make([]tagged, n)
	for i := range items {
		items[i] = tagged{tag: i, key: axisKey{vals[r.Intn(len(vals))], vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]}}
	}
	return items
}

// TestSorterMatchesSliceStable pins the kernel's contract: for each of
// the three key shapes the build paths use, Sort returns the
// permutation sort.SliceStable returns under the comparator the parent
// code passed it.
func TestSorterMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 200, 5000} {
		items := tiedKeys(r, n)

		// STR axis pass: the rotated center triple, != then <.
		for axis := 0; axis < 3; axis++ {
			want := slices.Clone(items)
			sort.SliceStable(want, func(i, j int) bool {
				for k := 0; k < 3; k++ {
					a := (axis + k) % 3
					if want[i].key[a] != want[j].key[a] {
						return want[i].key[a] < want[j].key[a]
					}
				}
				return false
			})
			got := slices.Clone(items)
			sortByAxis(NewSorter[tagged](compareAxisKeys), got, func(it tagged) geom.Vec3 { return geom.V(it.key[0], it.key[1], it.key[2]) }, axis)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d axis %d: axis-key order differs from sort.SliceStable", n, axis)
			}
		}

		// PR-tree: one float64, ascending and (negated) descending.
		for _, desc := range []bool{false, true} {
			want := slices.Clone(items)
			sort.SliceStable(want, func(i, j int) bool {
				if desc {
					return want[i].key[0] > want[j].key[0]
				}
				return want[i].key[0] < want[j].key[0]
			})
			got := slices.Clone(items)
			NewSorter[tagged](cmp.Compare[float64]).Sort(got, func(i int) float64 {
				if desc {
					return -got[i].key[0]
				}
				return got[i].key[0]
			})
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d desc=%v: float-key order differs from sort.SliceStable", n, desc)
			}
		}

		// Hilbert: a uint64 key held beside the items, few distinct values.
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(r.Intn(7)) << 60
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		got := slices.Clone(items)
		NewSorter[tagged](cmp.Compare[uint64]).Sort(got, func(i int) uint64 { return keys[i] })
		for i, j := range idx {
			if got[i] != items[j] {
				t.Fatalf("n=%d: uint64-key order differs from sort.SliceStable at %d", n, i)
			}
		}
	}
}

// One sorter serves runs of different lengths, growing its buffers to
// the longest.
func TestSorterReusesBuffersAcrossRuns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	items := tiedKeys(r, 1000)
	want := slices.Clone(items)
	s := NewSorter[tagged](cmp.Compare[float64])
	for _, cut := range [][2]int{{0, 100}, {100, 600}, {600, 750}, {750, 1000}} {
		run, ref := items[cut[0]:cut[1]], want[cut[0]:cut[1]]
		s.Sort(run, func(i int) float64 { return run[i].key[1] })
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].key[1] < ref[j].key[1] })
	}
	if !slices.Equal(items, want) {
		t.Fatal("nested runs differ from sort.SliceStable")
	}
}
