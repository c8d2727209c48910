package rtree

import (
	"math/rand"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

func buildDynamic(t *testing.T, els []geom.Element) (*Tree, *storage.ConcurrentPool) {
	t.Helper()
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	dt := NewDynTree(pool, Config{})
	for _, e := range els {
		if err := dt.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	view, err := dt.View()
	if err != nil {
		t.Fatal(err)
	}
	return view, pool
}

func TestDynamicMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(229))
	els := randomElements(r, 3000, worldBox())
	tree, _ := buildDynamic(t, els)
	if tree.Len() != 3000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for i := 0; i < 50; i++ {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		q := geom.CubeAt(c, 2+r.Float64()*20)
		got, err := tree.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(els, q)
		if !equalIDs(idsOf(got), want) {
			t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
		}
	}
}

func TestDynamicStructuralInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(233))
	els := randomElements(r, 4000, worldBox())
	tree, _ := buildDynamic(t, els)
	checkStructure(t, tree, len(els))
}

// checkStructure verifies the shape every DynTree view must have,
// however it was built: non-empty nodes within capacity, leaves at one
// depth, n distinct elements, parent boxes equal to child MBRs.
func checkStructure(t *testing.T, tree *Tree, n int) {
	t.Helper()
	leafDepth := -1
	seen := map[uint64]bool{}
	boxes := map[storage.PageID]geom.MBR{}
	err := walk(tree, func(id storage.PageID, depth int, isLeaf bool, entries []NodeEntry) error {
		if len(entries) == 0 || len(entries) > NodeCapacity {
			t.Fatalf("node %d has %d entries", id, len(entries))
		}
		boxes[id] = nodeMBR(entries)
		if isLeaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			for _, e := range entries {
				if seen[e.Ref] {
					t.Fatalf("duplicate element %d", e.Ref)
				}
				seen[e.Ref] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("enumerated %d of %d elements", len(seen), n)
	}
	// Parent entry boxes contain (and equal) child MBRs.
	err = walk(tree, func(id storage.PageID, depth int, isLeaf bool, entries []NodeEntry) error {
		if isLeaf {
			return nil
		}
		for _, e := range entries {
			child := boxes[storage.PageID(e.Ref)]
			if e.Box != child {
				t.Fatalf("stale parent box %v != child MBR %v", e.Box, child)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDynamicSmall(t *testing.T) {
	r := rand.New(rand.NewSource(239))
	els := randomElements(r, 5, worldBox())
	tree, _ := buildDynamic(t, els)
	if tree.Height() != 1 {
		t.Errorf("height = %d", tree.Height())
	}
	got, err := tree.RangeQuery(worldBox())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("full query = %d", len(got))
	}
}

func TestDynamicEmptyView(t *testing.T) {
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	dt := NewDynTree(pool, Config{})
	if _, err := dt.View(); err != ErrEmpty {
		t.Errorf("empty view: %v", err)
	}
	if dt.count != 0 || dt.height != 0 {
		t.Error("empty accessors")
	}
}

// TestDynamicWorsePageUtilization reproduces the claim of Section VII
// that bulkloaded trees beat insertion-built ones primarily due to
// better page utilization: the dynamic tree must use noticeably more
// leaf pages than the 100%-packed STR tree over the same data.
func TestDynamicWorsePageUtilization(t *testing.T) {
	r := rand.New(rand.NewSource(241))
	els := randomElements(r, 8000, worldBox())
	dyn, _ := buildDynamic(t, els)
	str, _ := buildTree(t, els, STR)

	dLeaf, _ := dyn.PageCounts()
	sLeaf, _ := str.PageCounts()
	if float64(dLeaf) < 1.2*float64(sLeaf) {
		t.Errorf("dynamic tree leaf pages %d vs STR %d: expected >= 1.2x", dLeaf, sLeaf)
	}
}

func TestQuadraticSplitRespectsMinFill(t *testing.T) {
	r := rand.New(rand.NewSource(251))
	entries := make([]NodeEntry, NodeCapacity+1)
	for i := range entries {
		entries[i] = NodeEntry{
			Box: geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), 1),
			Ref: uint64(i),
		}
	}
	left, right := quadraticSplit(entries, NodeCapacity)
	minFill := NodeCapacity * 2 / 5
	if len(left) < minFill || len(right) < minFill {
		t.Fatalf("split %d/%d violates min fill %d", len(left), len(right), minFill)
	}
	if len(left)+len(right) != len(entries) {
		t.Fatalf("split lost entries: %d + %d != %d", len(left), len(right), len(entries))
	}
	seen := map[uint64]bool{}
	for _, e := range append(append([]NodeEntry{}, left...), right...) {
		if seen[e.Ref] {
			t.Fatalf("entry %d duplicated by split", e.Ref)
		}
		seen[e.Ref] = true
	}
}
