package flat

import (
	"context"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// queryWorkload returns a mix of selective and broad boxes over the
// random-element cube used by the API tests.
func queryWorkload(r *rand.Rand, n int) []MBR {
	qs := make([]MBR, n)
	for i := range qs {
		c := V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		side := 2 + r.Float64()*18
		qs[i] = CubeAt(c, side)
	}
	return qs
}

// checkStats asserts the self-consistency every QueryStats must keep
// even when other queries run concurrently: the total is the sum of the
// per-category reads this query itself caused, and the result count
// matches the materialized elements.
func checkStats(t *testing.T, st QueryStats, nResults int) {
	t.Helper()
	if st.Results != nResults {
		t.Errorf("stats.Results = %d, want %d", st.Results, nResults)
	}
	if sum := st.SeedReads + st.MetadataReads + st.ObjectReads; st.TotalReads != sum {
		t.Errorf("stats.TotalReads = %d, want seed+meta+object = %d", st.TotalReads, sum)
	}
}

// runConcurrencyCheck executes the workload on goroutines*rounds
// concurrent queries against ix (at any shard count) and verifies every
// result set matches the single-threaded baseline and every QueryStats
// is self-consistent. Run it under -race to also certify the page cache.
func runConcurrencyCheck(t *testing.T, ix *Index, queries []MBR) {
	t.Helper()

	// Single-threaded baseline, and a sanity check against brute force
	// over a fresh scan of the index itself.
	baseline := make([][]uint64, len(queries))
	for i, q := range queries {
		els, st, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		checkStats(t, st, len(els))
		ids := make([]uint64, len(els))
		for j, e := range els {
			ids[j] = e.ID
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		baseline[i] = ids
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, q := range queries {
					// Alternate between the two query methods so both
					// concurrent paths are exercised.
					if (g+round+i)%2 == 0 {
						els, st, err := ix.RangeQuery(q)
						if err != nil {
							errc <- err
							return
						}
						checkStats(t, st, len(els))
						ids := make([]uint64, len(els))
						for j, e := range els {
							ids[j] = e.ID
						}
						sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
						if len(ids) != len(baseline[i]) {
							t.Errorf("goroutine %d query %d: %d results, baseline %d", g, i, len(ids), len(baseline[i]))
							return
						}
						for j := range ids {
							if ids[j] != baseline[i][j] {
								t.Errorf("goroutine %d query %d: result %d = id %d, baseline %d", g, i, j, ids[j], baseline[i][j])
								return
							}
						}
					} else {
						n, st, err := ix.CountQuery(q)
						if err != nil {
							errc <- err
							return
						}
						checkStats(t, st, n)
						if n != len(baseline[i]) {
							t.Errorf("goroutine %d query %d: count %d, baseline %d", g, i, n, len(baseline[i]))
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestConcurrentQueriesMemory(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	els := randomElements(r, 6000)
	ix, err := Build(els, &Options{PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	runConcurrencyCheck(t, ix, queryWorkload(r, 25))
}

func TestConcurrentQueriesDisk(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	els := randomElements(r, 6000)
	dir := filepath.Join(t.TempDir(), "flat.idx")
	built, err := Build(els, &Options{PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a bounded cache: concurrent queries now also contend
	// on eviction, the harder case for the sharded pool.
	ix, err := Open(dir, &Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	runConcurrencyCheck(t, ix, queryWorkload(r, 25))
}

func TestBatchRangeQuery(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	els := randomElements(r, 5000)
	ix, err := Build(els, &Options{PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	queries := queryWorkload(r, 40)

	for _, workers := range []int{0, 1, 3, 8, 100} {
		results, err := ix.BatchRangeQuery(context.Background(), queries, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(queries) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(queries))
		}
		for i, q := range queries {
			want, _, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got := results[i]
			checkStats(t, got.Stats, len(got.Elements))
			if len(got.Elements) != len(want) {
				t.Errorf("workers=%d query %d: %d elements, want %d", workers, i, len(got.Elements), len(want))
				continue
			}
			sortByID := func(e []Element) {
				sort.Slice(e, func(a, b int) bool { return e[a].ID < e[b].ID })
			}
			sortByID(got.Elements)
			sortByID(want)
			for j := range want {
				if got.Elements[j].ID != want[j].ID {
					t.Errorf("workers=%d query %d element %d: id %d, want %d", workers, i, j, got.Elements[j].ID, want[j].ID)
					break
				}
			}
		}
	}

	// The count variant must agree with the range variant.
	counts, stats, err := ix.BatchCountQuery(context.Background(), queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(queries) || len(stats) != len(queries) {
		t.Fatalf("BatchCountQuery returned %d counts, %d stats", len(counts), len(stats))
	}
	for i, q := range queries {
		n, _, err := ix.CountQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if counts[i] != n {
			t.Errorf("query %d: batch count %d, direct count %d", i, counts[i], n)
		}
		checkStats(t, stats[i], counts[i])
	}
}

func TestBatchRangeQueryEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	ix, err := Build(randomElements(r, 200), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	results, err := ix.BatchRangeQuery(context.Background(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
}

// TestRTreeStatsAreThePerCallMisses pins the one-tally invariant on the
// public baseline tree: a RangeQuery reports the cache misses that call
// caused, never a neighbour's. Each box has a cold sequential cost; run
// concurrently over a shared cache a call can only find pages already
// fetched for it, so on every interleaving its count is at most that
// cost. (Diffing a pool-wide counter around the traversal charged each
// call whatever overlapped it.)
func TestRTreeStatsAreThePerCallMisses(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tr, err := BuildRTree(randomElements(r, 20000), RTreeSTR, &Options{PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	boxes := queryWorkload(r, 8)
	cold := make([]uint64, len(boxes))
	for i, q := range boxes {
		tr.DropCache()
		_, st, err := tr.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if cold[i] = st.InternalReads + st.LeafReads; cold[i] == 0 {
			t.Fatalf("box %d reads nothing cold", i)
		}
	}
	for round := 0; round < 20; round++ {
		tr.DropCache()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range boxes {
					i := (g + k) % len(boxes)
					_, st, err := tr.RangeQuery(boxes[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got := st.InternalReads + st.LeafReads; got > cold[i] {
						t.Errorf("round %d: box %d charged %d page reads, its cold cost is %d", round, i, got, cold[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}
