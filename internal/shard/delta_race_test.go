package shard

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"flat/internal/geom"
)

// TestConcurrentQueriesWithStagedDelta pins the concurrency contract of
// the indexed overlay: query methods are documented safe for any number
// of goroutines, and with a non-empty staged delta every query probes
// the shards' staged runs and the delete runs under pmu's read side
// only. A probe must therefore never write shared state — run under
// -race (CI does) this test catches one that does, such as a cache
// published by whichever reader gets there first.
func TestConcurrentQueriesWithStagedDelta(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	els := randomElements(r, 2000)
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Stage enough inserts that every shard carries staged runs, and
	// deletes so that queries filter through the delete runs.
	const deletes = 32
	extra := randomElements(rand.New(rand.NewSource(42)), 600)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	if err := set.StageInsert(extra...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deletes; i++ {
		if err := set.StageDelete(els[i].ID, els[i].Box); err != nil {
			t.Fatal(err)
		}
	}

	all := geom.Box(geom.V(-1000, -1000, -1000), geom.V(1000, 1000, 1000))
	queries := []geom.MBR{
		all,
		geom.Box(geom.V(-50, -50, -50), geom.V(50, 50, 50)),
		geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100)),
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		res, _ := collectStream(t, set, context.Background(), q)
		want[i] = len(res)
	}
	if want[0] != len(els)+len(extra)-deletes {
		t.Fatalf("world query: %d results, want %d", want[0], len(els)+len(extra)-deletes)
	}

	// Phase 1: a fixed delta, hammered by concurrent readers; results
	// must match the single-threaded baseline exactly.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := i % len(queries)
				st, err := set.StreamQuery(context.Background(), queries[q], StreamOptions{}, func(geom.Element) bool { return true })
				if err != nil {
					t.Error(err)
					return
				}
				if st.Results != want[q] {
					t.Errorf("query %d: %d results, want %d", q, st.Results, want[q])
					return
				}
			}
		}()
	}
	wg.Wait()

	// Phase 2: staging is documented safe to run concurrently with
	// queries — grow the delta while readers probe it. Results can only
	// grow (inserts only), so bound-check rather than match exactly. k-NN
	// streams walk the staged runs beside them: each must stay
	// nondecreasing in distance and repeat no ID.
	const growth = 200
	wg.Add(1)
	go func() {
		defer wg.Done()
		grow := randomElements(rand.New(rand.NewSource(43)), growth)
		for i := range grow {
			grow[i].ID += 2 << 20
			if err := set.StageInsert(grow[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				st, err := set.StreamQuery(context.Background(), all, StreamOptions{}, func(geom.Element) bool { return true })
				if err != nil {
					t.Error(err)
					return
				}
				if st.Results < want[0] || st.Results > want[0]+growth {
					t.Errorf("world query during staging: %d results, want %d..%d", st.Results, want[0], want[0]+growth)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p := geom.V(float64(25*g), float64(10*i), 50)
				prev, seen := math.Inf(-1), make(map[uint64]bool)
				_, err := set.NNQuery(context.Background(), p, 0, func(e geom.Element, d float64) bool {
					if d < prev || seen[e.ID] {
						t.Errorf("k-NN at %v during staging: element %d at %g after %g, or repeated", p, e.ID, d, prev)
						return false
					}
					prev, seen[e.ID] = d, true
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(seen) < want[0] || len(seen) > want[0]+growth {
					t.Errorf("k-NN at %v during staging: %d elements, want %d..%d", p, len(seen), want[0], want[0]+growth)
					return
				}
			}
		}()
	}
	wg.Wait()
}
