package flat

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"flat/internal/storage"
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
// even when other queries run concurrently: the total is the tally of
// the reads this query itself caused, and the result count matches the
// materialized elements.
func checkStats(t *testing.T, st QueryStats, nResults int) {
	t.Helper()
	if st.Results != nResults {
		t.Errorf("stats.Results = %d, want %d", st.Results, nResults)
	}
	if sum := st.Reads.TotalReads(); st.TotalReads != sum {
		t.Errorf("stats.TotalReads = %d, want the tally's %d", st.TotalReads, sum)
	}
	if n := st.Reads.Reads[storage.CatUnknown]; n != 0 {
		t.Errorf("stats read %d pages of no category", n)
	}
}

// runConcurrencyCheck executes the workload on goroutines*rounds
// concurrent queries against ix (at any shard count), built over els,
// and verifies every result set matches the single-threaded baseline and
// every QueryStats is self-consistent. Run it under -race to also
// certify the shared read path.
func runConcurrencyCheck(t *testing.T, ix *Index, els []Element, queries []MBR) {
	t.Helper()

	// Single-threaded baseline, checked against brute force over els.
	baseline := make([][]uint64, len(queries))
	for i, q := range queries {
		res, st, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		checkStats(t, st, len(res))
		ids := idsOf(res)
		if want := apiBrute(els, q); !sameIDs(ids, want) {
			t.Fatalf("baseline query %d: %d results, brute force has %d", i, len(ids), len(want))
		}
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
						res, st, err := ix.RangeQuery(q)
						if err != nil {
							errc <- err
							return
						}
						checkStats(t, st, len(res))
						if ids := idsOf(res); !sameIDs(ids, baseline[i]) {
							t.Errorf("goroutine %d query %d: %d results differ from the baseline's %d", g, i, len(ids), len(baseline[i]))
							return
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
	ix, err := Build(els, &Options{pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	runConcurrencyCheck(t, ix, els, queryWorkload(r, 25))
}

func TestConcurrentQueriesDisk(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	els := randomElements(r, 6000)
	dir := filepath.Join(t.TempDir(), "flat.idx")
	built, err := Build(els, &Options{pageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: concurrent queries now share the mapped shard file's
	// pages through the shared pool.
	ix, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	runConcurrencyCheck(t, ix, els, queryWorkload(r, 25))
}

// TestRTreeQueryStatsAreThePerCallMisses pins the one-tally invariant on the
// public baseline tree: a RangeQuery reports the page reads that call
// made, never a neighbour's. Each box has a cold sequential cost, and on
// every interleaving of concurrent calls its count is exactly that cost.
// (Diffing a pool-wide counter around the traversal charged each call
// whatever overlapped it.)
func TestRTreeQueryStatsAreThePerCallMisses(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tr, err := BuildRTree(randomElements(r, 20000), RTreeSTR, &Options{pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	boxes := queryWorkload(r, 8)
	cold := make([]uint64, len(boxes))
	for i, q := range boxes {
		_, st, err := tr.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if cold[i] = st.TotalReads; cold[i] == 0 {
			t.Fatalf("box %d reads nothing cold", i)
		}
	}
	for round := 0; round < 20; round++ {
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
					if got := st.TotalReads; got != cold[i] {
						t.Errorf("round %d: box %d charged %d page reads, its cold cost is %d", round, i, got, cold[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}
