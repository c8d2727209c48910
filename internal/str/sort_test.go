package str

import (
	"cmp"
	"fmt"
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

// floatShapes are the float distributions the sort tests draw each key
// coordinate from. Pools of a few values make most comparisons tie on
// one or more coordinates; the zero and subnormal pools keep the prefix
// range so narrow that no shift merges −0's prefix with +0's, so a prefix
// that told them apart would show; "spread" spans binades with ties, and
// "nan" puts NaN beside the zeros and infinities.
var floatShapes = []struct {
	name string
	draw func(r *rand.Rand) float64
	nan  bool
}{
	{"ties", pool(math.Copysign(0, -1), 0, 1, -1, 2.5, math.Inf(1), math.Inf(-1), 1e-300), false},
	{"zeros", pool(math.Copysign(0, -1), 0), false},
	{"subnormals", pool(math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308), false},
	{"spread", func(r *rand.Rand) float64 {
		return math.Round(r.NormFloat64()*64) * math.Pow(2, float64(r.Intn(40)-20))
	}, false},
	{"nan", pool(math.NaN(), math.Copysign(0, -1), 0, 1, math.Inf(1), math.Inf(-1)), true},
}

func pool(vals ...float64) func(r *rand.Rand) float64 {
	return func(r *rand.Rand) float64 { return vals[r.Intn(len(vals))] }
}

// uintShapes are the uint64 key distributions: few distinct values far
// apart, both ends of the range (the 32-bit shift), one value for all,
// a narrow range (no shift, long tie runs) and random widths.
var uintShapes = []struct {
	name string
	draw func(r *rand.Rand) uint64
}{
	{"few", func(r *rand.Rand) uint64 { return uint64(r.Intn(7)) << 60 }},
	{"edges", func(r *rand.Rand) uint64 { return []uint64{0, math.MaxUint64, r.Uint64()}[r.Intn(3)] }},
	{"equal", func(*rand.Rand) uint64 { return 42 }},
	{"narrow", func(r *rand.Rand) uint64 { return 1<<40 + uint64(r.Intn(300)) }},
	{"wide", func(r *rand.Rand) uint64 { return r.Uint64() >> r.Intn(64) }},
}

// tiedKeys draws n keys from a handful of values per coordinate — most
// comparisons tie on one or more coordinates, many on all three — with
// both zeros and both infinities among them.
func tiedKeys(r *rand.Rand, n int) []tagged {
	return drawKeys(r, n, floatShapes[0].draw)
}

func drawKeys(r *rand.Rand, n int, draw func(*rand.Rand) float64) []tagged {
	items := make([]tagged, n)
	for i := range items {
		items[i] = tagged{tag: i, key: axisKey{draw(r), draw(r), draw(r)}}
	}
	return items
}

// comparisonSort is the sort Sorter ran before its radix pass: (key,
// position) pairs sorted under compare, then position. Where compare is
// no ordering (a NaN under compareAxisKeys) Sort must still return this.
func comparisonSort[K any](items []tagged, key func(i int) K, compare func(a, b K) int) []tagged {
	pairs := make([]keyed[K], len(items))
	for i := range pairs {
		pairs[i] = keyed[K]{key(i), i}
	}
	slices.SortFunc(pairs, func(a, b keyed[K]) int {
		if c := compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out := make([]tagged, len(items))
	for i, p := range pairs {
		out[i] = items[p.pos]
	}
	return out
}

// keyed is one item's key and its input position.
type keyed[K any] struct {
	key K
	pos int
}

// sameTags compares two orders of one input by tag: a NaN key is not
// equal to itself.
func sameTags(a, b []tagged) bool {
	return slices.EqualFunc(a, b, func(x, y tagged) bool { return x.tag == y.tag })
}

func tagCenter(it tagged) geom.Vec3 { return geom.V(it.key[0], it.key[1], it.key[2]) }

// TestSorterMatchesSliceStable pins the kernel's contract: for each of
// the three key shapes the build paths use, Sort returns the
// permutation sort.SliceStable returns under the comparator the parent
// code passed it — on both sides of radixMin, over −0/+0 mixes,
// infinities, subnormals, the whole uint64 range and all-equal keys. A
// NaN in an STR axis key makes compareAxisKeys no ordering, and there
// Sort returns what the comparison sort does.
func TestSorterMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 200, 255, 256, 257, 5000, 100_000} {
		for _, shape := range floatShapes {
			items := drawKeys(r, n, shape.draw)
			name := fmt.Sprintf("n=%d %s", n, shape.name)

			// STR axis pass: the rotated center triple, != then <.
			for axis := 0; axis < 3; axis++ {
				var want []tagged
				if shape.nan {
					want = comparisonSort(items, func(i int) axisKey {
						k := items[i].key
						return axisKey{k[axis], k[(axis+1)%3], k[(axis+2)%3]}
					}, compareAxisKeys)
				} else {
					want = slices.Clone(items)
					sort.SliceStable(want, func(i, j int) bool {
						for k := 0; k < 3; k++ {
							a := (axis + k) % 3
							if want[i].key[a] != want[j].key[a] {
								return want[i].key[a] < want[j].key[a]
							}
						}
						return false
					})
				}
				got := slices.Clone(items)
				sortByAxis(NewSorter[tagged](compareAxisKeys, axisKeyPrefix), got, tagCenter, axis)
				if !sameTags(got, want) {
					t.Fatalf("%s axis %d: axis-key order differs from sort.SliceStable", name, axis)
				}
			}

			// PR-tree: one float64 under cmp.Compare, ascending and
			// (negated) descending.
			for _, desc := range []bool{false, true} {
				fkey := func(it tagged) float64 {
					if desc {
						return -it.key[0]
					}
					return it.key[0]
				}
				want := slices.Clone(items)
				sort.SliceStable(want, func(i, j int) bool { return cmp.Less(fkey(want[i]), fkey(want[j])) })
				got := slices.Clone(items)
				NewSorter[tagged](cmp.Compare[float64], FloatPrefix).Sort(got, func(i int) float64 { return fkey(got[i]) })
				if !sameTags(got, want) {
					t.Fatalf("%s desc=%v: float-key order differs from sort.SliceStable", name, desc)
				}
			}
		}

		// Hilbert: a uint64 key held beside the items.
		items := tiedKeys(r, n)
		for _, shape := range uintShapes {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = shape.draw(r)
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
			got := slices.Clone(items)
			NewSorter[tagged](cmp.Compare[uint64], Uint64Prefix).Sort(got, func(i int) uint64 { return keys[i] })
			for i, j := range idx {
				if got[i].tag != items[j].tag {
					t.Fatalf("n=%d %s: uint64-key order differs from sort.SliceStable at %d", n, shape.name, i)
				}
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
	s := NewSorter[tagged](cmp.Compare[float64], FloatPrefix)
	for _, cut := range [][2]int{{0, 100}, {100, 600}, {600, 750}, {750, 1000}} {
		run, ref := items[cut[0]:cut[1]], want[cut[0]:cut[1]]
		s.Sort(run, func(i int) float64 { return run[i].key[1] })
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].key[1] < ref[j].key[1] })
	}
	if !slices.Equal(items, want) {
		t.Fatal("nested runs differ from sort.SliceStable")
	}
}

// TestSorterAllocatesNothingWhenWarm pins the buffer rule: once a sorter
// has sorted a slice, sorting one no longer than it — radix path or one
// comparison run — allocates nothing, for each of the three key shapes.
func TestSorterAllocatesNothingWhenWarm(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src := drawKeys(r, 5000, floatShapes[3].draw)
	keys := make([]uint64, len(src))
	for i := range keys {
		keys[i] = r.Uint64()
	}
	axis := NewSorter[tagged](compareAxisKeys, axisKeyPrefix)
	float := NewSorter[tagged](cmp.Compare[float64], FloatPrefix)
	hilbert := NewSorter[tagged](cmp.Compare[uint64], Uint64Prefix)
	items := slices.Clone(src)
	shapes := []struct {
		name string
		sort func(items []tagged)
	}{
		{"axis", func(items []tagged) { sortByAxis(axis, items, tagCenter, 1) }},
		{"float", func(items []tagged) { float.Sort(items, func(i int) float64 { return items[i].key[0] }) }},
		{"uint64", func(items []tagged) { hilbert.Sort(items, func(i int) uint64 { return keys[i] }) }},
	}
	for _, sh := range shapes {
		sh.sort(items)
		for _, n := range []int{len(src), 3000, radixMin - 1} {
			if allocs := testing.AllocsPerRun(10, func() {
				copy(items, src)
				sh.sort(items[:n])
			}); allocs != 0 {
				t.Errorf("%s: a warm sort of %d items allocates %v times", sh.name, n, allocs)
			}
		}
	}
}

// FuzzSorter decodes the input into float64 or uint64 keys — NaN, both
// zeros and both infinities reachable — and requires Sort to return the
// permutation sort.SliceStable gives under the key's cmp.Compare.
func FuzzSorter(f *testing.F) {
	f.Add(false, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80}) // +0, then −0
	f.Add(false, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(true, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, unsigned bool, data []byte) {
		// Short inputs are repeated with a twist, so radix-sized inputs are
		// reached from small corpora: copy c of word i is word i with its
		// low byte xored with c.
		words := len(data) / 8
		if words == 0 {
			return
		}
		n := words * (1 + 600/words)
		bitsAt := func(i int) uint64 {
			w := i % words
			v := uint64(0)
			for b := 0; b < 8; b++ {
				v |= uint64(data[8*w+b]) << (8 * b)
			}
			return v ^ uint64(i/words)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		got := slices.Clone(idx)
		if unsigned {
			sort.SliceStable(idx, func(a, b int) bool { return bitsAt(idx[a]) < bitsAt(idx[b]) })
			NewSorter[int](cmp.Compare[uint64], Uint64Prefix).Sort(got, func(i int) uint64 { return bitsAt(got[i]) })
		} else {
			key := func(i int) float64 { return math.Float64frombits(bitsAt(i)) }
			sort.SliceStable(idx, func(a, b int) bool { return cmp.Less(key(idx[a]), key(idx[b])) })
			NewSorter[int](cmp.Compare[float64], FloatPrefix).Sort(got, func(i int) float64 { return key(got[i]) })
		}
		if !slices.Equal(got, idx) {
			t.Fatalf("Sort of %d keys differs from sort.SliceStable", n)
		}
	})
}
