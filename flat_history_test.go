package flat

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQueryStatsIndependentOfHistory pins that a query's page reads are
// a property of the query, as the paper's cold-per-query methodology
// makes them: one range, count and NN query report identical QueryStats
// when run first on a fresh index, when run again at once, and when run
// while 8 other sessions drain beside them, and two consecutive joins
// report identical JoinStats. K = 1 and 4, page formats v1 and v2.
func TestQueryStatsIndependentOfHistory(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	els := randomElements(r, 4000)
	outerEls := randomElements(r, 600)
	q := CubeAt(V(50, 50, 50), 24)
	p := V(40, 60, 45)
	ctx := context.Background()
	for _, k := range []int{1, 4} {
		for _, format := range []PageFormat{PageFormatV1, PageFormatV2} {
			t.Run(fmt.Sprintf("K=%d/%s", k, format), func(t *testing.T) {
				opts := &Options{Shards: k, PageFormat: format, pageCapacity: 16}
				ix, err := Build(append([]Element(nil), els...), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				outer, err := Build(append([]Element(nil), outerEls...), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer outer.Close()

				run := func() [3]QueryStats {
					t.Helper()
					_, rs, err := ix.RangeQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					_, cs, err := ix.CountQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					nn := ix.NN(ctx, p, 20)
					drainNN(t, nn, p)
					return [3]QueryStats{rs, cs, nn.Stats()}
				}
				first := run()
				if first[0].TotalReads == 0 || first[2].TotalReads == 0 {
					t.Fatalf("degenerate fixture: %+v", first)
				}
				if again := run(); again != first {
					t.Errorf("run again: %+v, first run %+v", again, first)
				}

				// Eight sessions over the same neighbourhood drain beside the
				// measured queries; each has finished one drain before they
				// run, so the index is warm with their reads.
				var (
					wg, warm sync.WaitGroup
					stop     atomic.Bool
				)
				for g := range 8 {
					wg.Add(1)
					warm.Add(1)
					go func() {
						defer wg.Done()
						box := CubeAt(V(45+float64(g), 50, 55-float64(g)), 20)
						for i := 0; ; i++ {
							var err error
							if g%2 == 0 {
								_, _, err = ix.Query(ctx, box).Collect()
							} else {
								_, _, err = ix.NN(ctx, p, 40).Collect()
							}
							if err != nil {
								t.Error(err)
							}
							if i == 0 {
								warm.Done()
							}
							if err != nil || stop.Load() {
								return
							}
						}
					}()
				}
				warm.Wait()
				beside := run()
				stop.Store(true)
				wg.Wait()
				if beside != first {
					t.Errorf("run beside 8 sessions: %+v, first run %+v", beside, first)
				}

				join := func() JoinStats {
					t.Helper()
					st, err := Join(ctx, outer, ix, 1.5, nil, func(a, b Element) bool { return true })
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				j1 := join()
				if j1.Blocks < 2 || j1.Inner.TotalReads == 0 {
					t.Fatalf("degenerate join fixture: %+v", j1)
				}
				if j2 := join(); j2 != j1 {
					t.Errorf("second join: %+v, first %+v", j2, j1)
				}
			})
		}
	}
}
