package rtree

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

var allStrategies = []Strategy{STR, Hilbert, PR}

func worldBox() geom.MBR { return geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100)) }

func randomElements(r *rand.Rand, n int, world geom.MBR) []geom.Element {
	els := make([]geom.Element, n)
	size := world.Size()
	for i := range els {
		c := geom.V(
			world.Min.X+r.Float64()*size.X,
			world.Min.Y+r.Float64()*size.Y,
			world.Min.Z+r.Float64()*size.Z,
		)
		h := geom.V(r.Float64(), r.Float64(), r.Float64())
		els[i] = geom.Element{ID: uint64(i), Box: geom.Box(c.Sub(h), c.Add(h))}
	}
	return els
}

func buildTree(t *testing.T, els []geom.Element, s Strategy) (*Tree, *storage.ConcurrentPool) {
	t.Helper()
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	cp := make([]geom.Element, len(els))
	copy(cp, els)
	tree, err := Build(pool, cp, s, worldBox(), Config{})
	if err != nil {
		t.Fatalf("%v build: %v", s, err)
	}
	return tree, pool
}

func bruteForce(els []geom.Element, q geom.MBR) []uint64 {
	var ids []uint64
	for _, e := range els {
		if e.Box.Intersects(q) {
			ids = append(ids, e.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func idsOf(els []geom.Element) []uint64 {
	ids := make([]uint64, len(els))
	for i, e := range els {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	els := randomElements(r, 3000, worldBox())
	for _, s := range allStrategies {
		tree, _ := buildTree(t, els, s)
		if tree.Len() != 3000 {
			t.Fatalf("%v: Len = %d", s, tree.Len())
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
				t.Fatalf("%v: query %v returned %d ids, want %d", s, q, len(got), len(want))
			}
		}
	}
}

func TestCountQueryAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	els := randomElements(r, 1000, worldBox())
	for _, s := range allStrategies {
		tree, _ := buildTree(t, els, s)
		q := geom.CubeAt(geom.V(50, 50, 50), 30)
		got, err := tree.CountQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(bruteForce(els, q)); got != want {
			t.Errorf("%v: CountQuery = %d, want %d", s, got, want)
		}
	}
}

func TestEmptyQueryRegion(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	els := randomElements(r, 500, worldBox())
	for _, s := range allStrategies {
		tree, _ := buildTree(t, els, s)
		// A region far outside the data.
		res, err := tree.RangeQuery(geom.CubeAt(geom.V(500, 500, 500), 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Errorf("%v: expected empty result, got %d", s, len(res))
		}
	}
}

func TestBuildEmptyFails(t *testing.T) {
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	if _, err := Build(pool, nil, STR, worldBox(), Config{}); err != ErrEmpty {
		t.Errorf("expected ErrEmpty, got %v", err)
	}
}

func TestSingleLeafTree(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	els := randomElements(r, 10, worldBox())
	for _, s := range allStrategies {
		tree, _ := buildTree(t, els, s)
		if tree.Height() != 1 {
			t.Errorf("%v: height = %d, want 1", s, tree.Height())
		}
		leaf, internal := tree.PageCounts()
		if leaf != 1 || internal != 0 {
			t.Errorf("%v: pages = %d leaf, %d internal", s, leaf, internal)
		}
		got, err := tree.RangeQuery(worldBox())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 10 {
			t.Errorf("%v: full query returned %d", s, len(got))
		}
	}
}

// TestTreeInvariants checks structural invariants for every strategy:
// uniform leaf depth, parent MBR containment, node fill, and that Walk
// enumerates exactly the indexed elements.
func TestTreeInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	els := randomElements(r, 5000, worldBox())
	for _, s := range allStrategies {
		tree, _ := buildTree(t, els, s)

		// Collect node MBR by page for containment checks.
		type nodeInfo struct {
			box    geom.MBR
			isLeaf bool
			depth  int
		}
		nodes := map[storage.PageID]nodeInfo{}
		leafDepth := -1
		seen := map[uint64]bool{}
		err := walk(tree, func(id storage.PageID, depth int, isLeaf bool, entries []NodeEntry) error {
			if len(entries) == 0 {
				t.Fatalf("%v: empty node %d", s, id)
			}
			if len(entries) > NodeCapacity {
				t.Fatalf("%v: node %d overfilled: %d", s, id, len(entries))
			}
			nodes[id] = nodeInfo{box: nodeMBR(entries), isLeaf: isLeaf, depth: depth}
			if isLeaf {
				if leafDepth == -1 {
					leafDepth = depth
				} else if leafDepth != depth {
					t.Fatalf("%v: leaves at depths %d and %d", s, leafDepth, depth)
				}
				for _, e := range entries {
					if seen[e.Ref] {
						t.Fatalf("%v: element %d duplicated", s, e.Ref)
					}
					seen[e.Ref] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(els) {
			t.Fatalf("%v: enumerated %d elements, want %d", s, len(seen), len(els))
		}
		if leafDepth != tree.Height()-1 {
			t.Fatalf("%v: leaf depth %d != height-1 %d", s, leafDepth, tree.Height()-1)
		}

		// Every internal entry's box must exactly contain its child node's
		// MBR (bulkloaded trees store tight child boxes).
		err = walk(tree, func(id storage.PageID, depth int, isLeaf bool, entries []NodeEntry) error {
			if isLeaf {
				return nil
			}
			for _, e := range entries {
				child, ok := nodes[storage.PageID(e.Ref)]
				if !ok {
					t.Fatalf("%v: dangling child ref %d", s, e.Ref)
				}
				if e.Box != child.box {
					t.Fatalf("%v: stored child box %v != child MBR %v", s, e.Box, child.box)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// walk visits every node of the tree top-down, calling fn with the node's
// page id, its depth (0 = root) and its decoded content: the structural
// enumeration the invariant tests check trees against.
func walk(t *Tree, fn func(id storage.PageID, depth int, isLeaf bool, entries []NodeEntry) error) error {
	type item struct {
		id    storage.PageID
		depth int
	}
	stack := []item{{t.root, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		isLeaf, entries, err := readNode(t.pool, it.id, nil, nil)
		if err != nil {
			return err
		}
		if err := fn(it.id, it.depth, isLeaf, entries); err != nil {
			return err
		}
		if !isLeaf {
			for _, e := range entries {
				stack = append(stack, item{storage.PageID(e.Ref), it.depth + 1})
			}
		}
	}
	return nil
}

func TestPointQueryReadsAtLeastHeight(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	els := randomElements(r, 8000, worldBox())
	for _, s := range allStrategies {
		tree, pool := buildTree(t, els, s)
		if tree.Height() < 2 {
			t.Fatalf("%v: want multi-level tree", s)
		}
		// Query at the center of a known element: at least one full path.
		pool.DropFrames()
		var st storage.Stats
		res, err := tree.Tally(&st).PointQuery(els[42].Box.Center())
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatalf("%v: point query at element center found nothing", s)
		}
		reads := st.TotalReads()
		if reads < uint64(tree.Height()) {
			t.Errorf("%v: point query read %d pages < height %d", s, reads, tree.Height())
		}
	}
}

func TestPageCountsAndSize(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	els := randomElements(r, 5000, worldBox())
	tree, _ := buildTree(t, els, STR)
	leaf, internal := tree.PageCounts()
	wantLeaves := (5000 + NodeCapacity - 1) / NodeCapacity
	// STR may produce slightly more leaves than the minimum because tiles
	// are cut per slab, but never fewer.
	if leaf < wantLeaves {
		t.Errorf("leaf pages = %d < minimum %d", leaf, wantLeaves)
	}
	if internal < 1 {
		t.Errorf("internal pages = %d", internal)
	}
	if tree.SizeBytes() != uint64(leaf+internal)*storage.PageSize {
		t.Errorf("SizeBytes inconsistent")
	}
	if !tree.Bounds().Contains(els[0].Box) {
		t.Errorf("Bounds does not contain an element")
	}
}

func TestBuildAbove(t *testing.T) {
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	// Fabricate 200 fake leaf pages with boxes on a line.
	entries := make([]NodeEntry, 200)
	buf := make([]byte, storage.PageSize)
	for i := range entries {
		id, err := pool.Alloc(storage.CatMetadata)
		if err != nil {
			t.Fatal(err)
		}
		encodeNode(buf, true, nil)
		if err := pool.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		entries[i] = NodeEntry{
			Box: geom.CubeAt(geom.V(float64(i), 0, 0), 1),
			Ref: uint64(id),
		}
	}
	root, height, pages, err := BuildAbove(pool, entries, Config{InternalCat: storage.CatSeedInternal})
	if err != nil {
		t.Fatal(err)
	}
	if height != 3 { // 200 leaves / 73 = 3 internal, then root: levels = leaf + 2
		t.Errorf("height = %d, want 3", height)
	}
	if pages < 4 {
		t.Errorf("internal pages = %d, want >= 4", pages)
	}
	// Root must be an internal node covering everything.
	page, err := pool.Read(root)
	if err != nil {
		t.Fatal(err)
	}
	isLeaf, rootEntries, err := DecodeNodeInto(page, nil)
	if err != nil {
		t.Fatal(err)
	}
	if isLeaf {
		t.Error("root should be internal")
	}
	all := geom.EmptyMBR()
	for _, e := range entries {
		all = all.Union(e.Box)
	}
	if !nodeMBR(rootEntries).Contains(all) {
		t.Error("root MBR does not cover all leaves")
	}
}

func TestBuildAboveSingleEntry(t *testing.T) {
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	id, _ := pool.Alloc(storage.CatMetadata)
	entries := []NodeEntry{{Box: geom.CubeAt(geom.V(0, 0, 0), 1), Ref: uint64(id)}}
	root, height, pages, err := BuildAbove(pool, entries, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if root != id || height != 1 || pages != 0 {
		t.Errorf("single entry: root=%d height=%d pages=%d", root, height, pages)
	}
}

func TestStrategyString(t *testing.T) {
	if STR.String() != "STR R-Tree" || Hilbert.String() != "Hilbert R-Tree" || PR.String() != "PR-Tree" {
		t.Error("unexpected strategy names")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy name")
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	entries := make([]NodeEntry, NodeCapacity)
	for i := range entries {
		entries[i] = NodeEntry{
			Box: geom.CubeAt(geom.V(r.Float64()*10, r.Float64()*10, r.Float64()*10), r.Float64()),
			Ref: r.Uint64(),
		}
	}
	buf := make([]byte, storage.PageSize)
	encodeNode(buf, true, entries)
	isLeaf, got, err := DecodeNodeInto(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !isLeaf {
		t.Error("kind lost")
	}
	if len(got) != len(entries) {
		t.Fatalf("count lost: %d", len(got))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestEncodeNodeOverCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	encodeNode(make([]byte, storage.PageSize), false, make([]NodeEntry, NodeCapacity+1))
}

// TestObjectPageV1ByteIdentical pins the compatibility contract: a v1
// object page is exactly the leaf node encodeNode writes, so pre-v2
// index files and new v1 builds are interchangeable.
func TestObjectPageV1ByteIdentical(t *testing.T) {
	els := randomElements(rand.New(rand.NewSource(7)), storage.ObjectPageCapacityV1, worldBox())

	var viaStorage, viaRtree [storage.PageSize]byte
	if err := storage.EncodeObjectPage(viaStorage[:], storage.PageFormatV1, els); err != nil {
		t.Fatal(err)
	}
	entries := make([]NodeEntry, len(els))
	for i, e := range els {
		entries[i] = NodeEntry{Box: e.Box, Ref: e.ID}
	}
	encodeNode(viaRtree[:], true, entries)
	if !bytes.Equal(viaStorage[:], viaRtree[:]) {
		t.Fatal("v1 object page differs from rtree leaf encoding")
	}

	dec, err := storage.DecodeObjectPageInto(viaStorage[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec, els) {
		t.Fatalf("decoded %d elements, not the %d encoded", len(dec), len(els))
	}
}

// FuzzDecodeNode feeds the node decoder arbitrary page bytes — seed-tree
// and delta-tree nodes are read back from files: whatever a flipped bit
// puts on the page, it decodes or fails, never reads past the page, and
// what decodes re-encodes to the same kind, count and entry bytes.
func FuzzDecodeNode(f *testing.F) {
	node := func(isLeaf bool, n int) []byte {
		entries := make([]NodeEntry, n)
		for i := range entries {
			entries[i] = NodeEntry{Box: geom.CubeAt(geom.V(float64(i), 2, 3), 1), Ref: uint64(i) << 33}
		}
		buf := make([]byte, storage.PageSize)
		encodeNode(buf, isLeaf, entries)
		return buf
	}
	f.Add(node(true, NodeCapacity))
	f.Add(node(false, 3))
	f.Add([]byte{kindInternal, 0, 0xff, 0xff})
	f.Add([]byte{0x7f, 0, 1, 0})
	f.Add(bytes.Repeat([]byte{0xff}, storage.PageSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := DecodeNodeInto(data[:min(len(data), storage.PageSize-1)], nil); err == nil {
			t.Fatal("a short page decoded")
		}
		page := make([]byte, storage.PageSize)
		copy(page, data)
		isLeaf, entries, err := DecodeNodeInto(page, nil)
		if err != nil {
			return
		}
		again := make([]byte, storage.PageSize)
		encodeNode(again, isLeaf, entries)
		end := nodeHeaderSize + len(entries)*entrySize
		if again[0] != page[0] || !bytes.Equal(again[2:end], page[2:end]) {
			t.Fatalf("%d decoded entries re-encode to other bytes", len(entries))
		}
	})
}

// TestHilbertOverlapWorseThanSTR reproduces the qualitative ordering the
// paper reports (Figures 2 and 12): on dense data the Hilbert-packed tree
// has at least as much point-query overlap as the STR-packed tree.
func TestHilbertOverlapWorseThanSTR(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	els := randomElements(r, 20000, worldBox())
	readsFor := func(s Strategy) uint64 {
		tree, pool := buildTree(t, els, s)
		var st storage.Stats
		for i := 0; i < 100; i++ {
			pool.DropFrames()
			p := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
			if _, err := tree.Tally(&st).PointQuery(p); err != nil {
				t.Fatal(err)
			}
		}
		return st.TotalReads()
	}
	rHilbert := readsFor(Hilbert)
	rSTR := readsFor(STR)
	if rHilbert*2 < rSTR {
		t.Errorf("unexpected: Hilbert (%d) reads far fewer pages than STR (%d)", rHilbert, rSTR)
	}
}
