package str

import (
	"math/rand"
	"slices"
	"testing"

	"flat/internal/geom"
)

// packBoxes packs a Tree over boxes, positions 0..len(boxes)-1.
func packBoxes(boxes []geom.MBR) Tree {
	pos := make([]int32, len(boxes))
	for i := range pos {
		pos[i] = int32(i)
	}
	return Pack(pos, func(p int32) geom.MBR { return boxes[p] })
}

// TestTreeShape: Pos is a permutation of the input, the last level is
// one root box, every node box is the union of its children's, and each
// level is fanout times narrower than the one below.
func TestTreeShape(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, n := range []int{1, fanout - 1, fanout, fanout + 1, fanout * fanout, 3000} {
		var boxes []geom.MBR
		for _, e := range randomElements(r, n, worldBox()) {
			boxes = append(boxes, e.Box)
		}
		tree := packBoxes(boxes)
		box := func(p int32) geom.MBR { return boxes[p] }
		if got := slices.Sorted(slices.Values(tree.Pos)); len(got) != n || got[0] != 0 || int(got[n-1]) != n-1 || len(slices.Compact(got)) != n {
			t.Fatalf("n=%d: Pos is not a permutation of the input", n)
		}
		if root := tree.Levels[tree.Top()]; len(root) != 1 {
			t.Fatalf("n=%d: %d root boxes", n, len(root))
		}
		below := n
		for l, nodes := range tree.Levels {
			if want := (below + fanout - 1) / fanout; len(nodes) != want {
				t.Fatalf("n=%d: level %d holds %d nodes over %d, want %d", n, l, len(nodes), below, want)
			}
			below = len(nodes)
			for node, b := range nodes {
				u := geom.EmptyMBR()
				lo, hi := tree.Children(l, node)
				for c := lo; c < hi; c++ {
					u = u.Union(tree.Box(l-1, c, box))
				}
				if u != b {
					t.Fatalf("n=%d: level %d node %d box %v, children's union %v", n, l, node, b, u)
				}
			}
		}
	}
}

// TestTreeSearchMatchesScan: Search hands over exactly the items a
// linear scan finds, each once, for hits, misses, touching boxes and the
// whole world.
func TestTreeSearchMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{1, fanout + 1, 700, 3000} {
		var boxes []geom.MBR
		for _, e := range randomElements(r, n, worldBox()) {
			boxes = append(boxes, e.Box)
		}
		tree := packBoxes(boxes)
		queries := []geom.MBR{worldBox(), geom.CubeAt(geom.V(-50, 50, 50), 10), geom.Box(geom.V(0, 0, 0), geom.V(0, 0, 0))}
		for range 50 {
			c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
			queries = append(queries, geom.CubeAt(c, r.Float64()*15))
		}
		queries = append(queries, boxes[0], geom.PointBox(boxes[n-1].Max))
		for _, q := range queries {
			var got, want []int32
			tree.Search(q, func(p int32) geom.MBR { return boxes[p] }, func(p int32) { got = append(got, p) })
			for i, b := range boxes {
				if b.Intersects(q) {
					want = append(want, int32(i))
				}
			}
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("n=%d, q=%v: Search found %v, the scan %v", n, q, got, want)
			}
		}
	}
}

// TestTreeSearchAllocatesNothing: a search allocates nothing of its own,
// whether it misses the root box or walks to a hundred hits.
func TestTreeSearchAllocatesNothing(t *testing.T) {
	var boxes []geom.MBR
	for _, e := range randomElements(rand.New(rand.NewSource(43)), 2000, worldBox()) {
		boxes = append(boxes, e.Box)
	}
	tree := packBoxes(boxes)
	box := func(p int32) geom.MBR { return boxes[p] }
	for _, c := range []struct {
		name string
		q    geom.MBR
	}{
		{"miss", geom.CubeAt(geom.V(-50, 50, 50), 10)},
		{"hit", geom.CubeAt(geom.V(50, 50, 50), 20)},
	} {
		hits := 0
		allocs := testing.AllocsPerRun(100, func() { tree.Search(c.q, box, func(int32) { hits++ }) })
		if allocs != 0 || (c.name == "hit") != (hits > 0) {
			t.Errorf("%s: %v allocations over %d hits, want 0", c.name, allocs, hits)
		}
	}
}
