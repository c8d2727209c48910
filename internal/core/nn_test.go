package core

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// indexedElements drains the index through a covering range query so
// brute-force expectations see the same boxes queries do (v2 pages
// store conservatively rounded boxes, so comparing against the build
// input would be wrong).
func indexedElements(t *testing.T, ix *Index) []geom.Element {
	t.Helper()
	els, _, err := ix.RangeQuery(worldBox().Expand(100))
	if err != nil {
		t.Fatal(err)
	}
	return els
}

// nnExpect sorts els by (distSq to p, ID) ascending.
func nnExpect(els []geom.Element, p geom.Vec3) []geom.Element {
	out := make([]geom.Element, len(els))
	copy(out, els)
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Box.DistSqToPoint(p), out[j].Box.DistSqToPoint(p)
		if di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func checkEngineNN(t *testing.T, ix *Index, els []geom.Element, p geom.Vec3) {
	t.Helper()
	var gotEls []geom.Element
	var gotDists []float64
	_, err := ix.NN(context.Background(), p, func(e geom.Element, distSq float64) bool {
		gotEls = append(gotEls, e)
		gotDists = append(gotDists, distSq)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEls) != len(els) {
		t.Fatalf("NN drained %d elements, index holds %d", len(gotEls), len(els))
	}
	want := nnExpect(els, p)
	seen := map[uint64]bool{}
	for i := range gotEls {
		if gotDists[i] != gotEls[i].Box.DistSqToPoint(p) {
			t.Fatalf("reported distance %v != recomputed %v", gotDists[i], gotEls[i].Box.DistSqToPoint(p))
		}
		if i > 0 && gotDists[i] < gotDists[i-1] {
			t.Fatalf("distance order violated at %d: %v after %v", i, gotDists[i], gotDists[i-1])
		}
		if wd := want[i].Box.DistSqToPoint(p); gotDists[i] != wd {
			t.Fatalf("distance[%d] = %v, want %v", i, gotDists[i], wd)
		}
		if seen[gotEls[i].ID] {
			t.Fatalf("element %d emitted twice", gotEls[i].ID)
		}
		seen[gotEls[i].ID] = true
	}
}

func TestNNMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(307))
	for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
		els := randomElements(r, 3000, worldBox())
		ix, _ := buildIndex(t, els, Options{World: worldBox(), PageFormat: format})
		decoded := indexedElements(t, ix)
		for i := 0; i < 15; i++ {
			p := geom.V(r.Float64()*160-30, r.Float64()*160-30, r.Float64()*160-30)
			checkEngineNN(t, ix, decoded, p)
		}
	}
}

func TestNNClusteredData(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	centers := []geom.Vec3{geom.V(10, 10, 10), geom.V(90, 90, 90), geom.V(10, 90, 50)}
	els := clusteredElements(r, 800, centers, 3)
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	decoded := indexedElements(t, ix)
	for _, p := range []geom.Vec3{geom.V(50, 50, 50), geom.V(10, 10, 10), geom.V(0, 0, 0), geom.V(120, 120, 120)} {
		checkEngineNN(t, ix, decoded, p)
	}
}

// Stopping after k elements must read strictly fewer pages than a full
// drain: that saved I/O is the point of the best-first frontier.
func TestNNEarlyStopSavesReads(t *testing.T) {
	r := rand.New(rand.NewSource(313))
	els := randomElements(r, 8000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})

	run := func(k int) uint64 {
		n := 0
		st, err := ix.NN(context.Background(), geom.V(42, 57, 33), func(geom.Element, float64) bool {
			n++
			return k <= 0 || n < k
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.TotalReads
	}
	k1, full := run(1), run(0)
	if k1 >= full {
		t.Fatalf("k=1 read %d pages, full drain %d", k1, full)
	}
}

// Cancelling mid-stream must surface ctx.Err() and leave the engine
// reusable (the scratch pool must not retain a poisoned state).
func TestNNCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(317))
	els := randomElements(r, 4000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := ix.NN(ctx, geom.V(50, 50, 50), func(geom.Element, float64) bool {
		n++
		if n == 10 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n < 10 {
		t.Fatalf("emitted %d elements before cancel", n)
	}
	// The engine must answer correctly afterwards.
	decoded := indexedElements(t, ix)
	checkEngineNN(t, ix, decoded, geom.V(50, 50, 50))
}

// The NN stats must account the traversal's work: reads add up and the
// result count matches emissions.
func TestNNStats(t *testing.T) {
	r := rand.New(rand.NewSource(331))
	els := randomElements(r, 2000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	n := 0
	st, err := ix.NN(context.Background(), geom.V(10, 80, 40), func(geom.Element, float64) bool {
		n++
		return n < 25
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != 25 || n != 25 {
		t.Fatalf("Results = %d, emitted %d, want 25", st.Results, n)
	}
	if st.TotalReads != st.Reads.TotalReads() || st.Reads.Reads[storage.CatUnknown] != 0 {
		t.Fatalf("reads don't add up: %+v", st)
	}
	if st.PagesVisited == 0 || st.RecordsVisited == 0 {
		t.Fatalf("traversal counters empty: %+v", st)
	}
}
