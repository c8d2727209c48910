package shard

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"flat/internal/geom"
)

// TestConcurrentQueriesWithStagedDelta pins the concurrency contract of
// the indexed overlay: query methods are documented safe for any number
// of goroutines, and with a non-empty staged delta every query probes
// the dirty shards' delta R-trees under pmu's read side only. The
// trees' pages must therefore come from a concurrency-safe pool — run
// under -race (CI does) this test catches a delta tree whose pool
// mutates unsynchronized LRU bookkeeping on every read, cache hits
// included.
func TestConcurrentQueriesWithStagedDelta(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	els := randomElements(r, 2000)
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Stage enough inserts that every shard carries a populated delta
	// tree, and deletes so that queries build and share the by-ID delete
	// index.
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
		res, _, err := set.RangeQuery(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
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
				res, _, err := set.RangeQuery(context.Background(), queries[q])
				if err != nil {
					t.Error(err)
					return
				}
				if len(res) != want[q] {
					t.Errorf("query %d: %d results, want %d", q, len(res), want[q])
					return
				}
			}
		}()
	}
	wg.Wait()

	// Phase 2: staging is documented safe to run concurrently with
	// queries — grow the delta while readers probe it. Results can only
	// grow (inserts only), so bound-check rather than match exactly.
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
				res, _, err := set.RangeQuery(context.Background(), all)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res) < want[0] || len(res) > want[0]+growth {
					t.Errorf("world query during staging: %d results, want %d..%d", len(res), want[0], want[0]+growth)
					return
				}
			}
		}()
	}
	wg.Wait()
}
