package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// nnBrute returns all element distances to p sorted ascending.
func nnBrute(els []geom.Element, p geom.Vec3) []float64 {
	d := make([]float64, len(els))
	for i, e := range els {
		d[i] = e.Box.DistSqToPoint(p)
	}
	sort.Float64s(d)
	return d
}

func checkNNOrder(t *testing.T, tree *Tree, els []geom.Element, p geom.Vec3) {
	t.Helper()
	var got []float64
	seen := map[uint64]bool{}
	err := tree.NN(p, func(el geom.Element, distSq float64) bool {
		if distSq != el.Box.DistSqToPoint(p) {
			t.Fatalf("reported distance %v != recomputed %v", distSq, el.Box.DistSqToPoint(p))
		}
		if seen[el.ID] {
			t.Fatalf("element %d visited twice", el.ID)
		}
		seen[el.ID] = true
		got = append(got, distSq)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := nnBrute(els, p)
	if len(got) != len(want) {
		t.Fatalf("visited %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if i > 0 && got[i] < got[i-1] {
			t.Fatalf("distance order violated at %d: %v after %v", i, got[i], got[i-1])
		}
		if got[i] != want[i] {
			t.Fatalf("distance[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNNBestFirstDynamic(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	els := randomElements(r, 2500, worldBox())
	tree, _ := buildDynamic(t, els)
	for i := 0; i < 20; i++ {
		p := geom.V(r.Float64()*140-20, r.Float64()*140-20, r.Float64()*140-20)
		checkNNOrder(t, tree, els, p)
	}
}

func TestNNBestFirstBulkloaded(t *testing.T) {
	r := rand.New(rand.NewSource(277))
	els := randomElements(r, 2000, worldBox())
	tree, _ := buildTree(t, els, STR)
	for i := 0; i < 10; i++ {
		p := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		checkNNOrder(t, tree, els, p)
	}
}

// Early termination must not read the whole tree: stopping at k=1 from
// a point inside the world should touch far fewer pages than a drain.
func TestNNEarlyStopReadsFewerPages(t *testing.T) {
	r := rand.New(rand.NewSource(281))
	els := randomElements(r, 5000, worldBox())
	tree, pool := buildDynamic(t, els)

	// Reads tally cache misses; cold-start each run so they count.
	pool.DropFrames()
	var early, full storage.Stats
	if err := tree.Tally(&early).NN(geom.V(50, 50, 50), func(geom.Element, float64) bool { return false }); err != nil {
		t.Fatal(err)
	}

	pool.DropFrames()
	if err := tree.Tally(&full).NN(geom.V(50, 50, 50), func(geom.Element, float64) bool { return true }); err != nil {
		t.Fatal(err)
	}

	if early.TotalReads() >= full.TotalReads() {
		t.Fatalf("early stop read %d pages, full drain %d", early.TotalReads(), full.TotalReads())
	}
}

func TestNNEmptyTree(t *testing.T) {
	view := &Tree{root: storage.InvalidPage}
	calls := 0
	if err := view.NN(geom.V(0, 0, 0), func(geom.Element, float64) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("empty tree visited %d elements", calls)
	}
}

// TestDistHeapRanks: among equal distances Push pops in insertion order
// and ahead of every PushRanked rank from 1<<63 up, which pop by rank; a
// smaller distance pops first whatever the ranks.
func TestDistHeapRanks(t *testing.T) {
	var h DistHeap[string]
	h.PushRanked(1, 1<<63|2, "staged 2")
	h.Push(1, "bulk a")
	h.PushRanked(1, 1<<63|1, "staged 1")
	h.PushRanked(1, 1<<63, "run node")
	h.Push(1, "bulk b")
	h.PushRanked(0.5, 1<<63|9, "nearer")
	want := []string{"nearer", "bulk a", "bulk b", "run node", "staged 1", "staged 2"}
	for i, w := range want {
		if v, _, ok := h.Pop(); !ok || v != w {
			t.Fatalf("pop %d: %q (ok %v), want %q", i, v, ok, w)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("heap not empty after every item popped")
	}
}
