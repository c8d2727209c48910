package flat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// nnLive recovers an index's live element view (decoded boxes, staged
// overlay applied) so parity holds bit-for-bit under v2 quantization.
func nnLive(t *testing.T, q *Index) []Element {
	t.Helper()
	els, _, err := q.RangeQuery(q.Bounds().Expand(1000))
	if err != nil {
		t.Fatal(err)
	}
	return els
}

// nnBruteDists returns the sorted squared distances of els from p —
// the positional reference an NN drain must match exactly.
func nnBruteDists(els []Element, p Vec3) []float64 {
	out := make([]float64, len(els))
	for i, e := range els {
		out[i] = e.Box.DistSqToPoint(p)
	}
	sort.Float64s(out)
	return out
}

// drainNN drains an NN session and checks the stream invariants:
// nondecreasing distance and no duplicate elements.
func drainNN(t *testing.T, res *Results, p Vec3) []Element {
	t.Helper()
	var out []Element
	prev := math.Inf(-1)
	for e, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		if d := e.Box.DistSqToPoint(p); d < prev {
			t.Fatalf("emission %d: distance %g after %g (order regressed)", len(out), d, prev)
		} else {
			prev = d
		}
		out = append(out, e)
	}
	return out
}

func TestNNMatchesBruteForce(t *testing.T) {
	for _, format := range []PageFormat{PageFormatV1, PageFormatV2} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("v%d-k%d", format, shards), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(1000 + shards)))
				els := randomElements(r, 1200)
				sx, err := Build(els, &Options{Shards: shards, PageCapacity: 8, PageFormat: format})
				if err != nil {
					t.Fatal(err)
				}
				defer sx.Close()

				live := nnLive(t, sx)
				for i := 0; i < 8; i++ {
					p := V(r.Float64()*140-20, r.Float64()*140-20, r.Float64()*140-20)
					want := nnBruteDists(live, p)
					for _, k := range []int{1, 4} {
						got := drainNN(t, sx.NN(context.Background(), p, k), p)
						if len(got) != k {
							t.Fatalf("NN(%v, %d) returned %d elements", p, k, len(got))
						}
						for j, e := range got {
							if d := e.Box.DistSqToPoint(p); d != want[j] {
								t.Fatalf("NN(%v, %d) emission %d: distSq %g, brute force %g", p, k, j, d, want[j])
							}
						}
					}
					// Full drain covers the whole index in order.
					all := drainNN(t, sx.NN(context.Background(), p, 0), p)
					if len(all) != len(live) {
						t.Fatalf("NN full drain returned %d elements, want %d", len(all), len(live))
					}
				}
			})
		}
	}
}

func TestNNUnshardedMatchesSharded(t *testing.T) {
	_, targets := queryTargets(t, 900)
	p := V(42, 17, 88)
	var want []float64
	for name, q := range targets {
		got := drainNN(t, q.NN(context.Background(), p, 12), p)
		dists := make([]float64, len(got))
		for i, e := range got {
			dists[i] = e.Box.DistSqToPoint(p)
		}
		if want == nil {
			want = dists
			continue
		}
		if len(dists) != len(want) {
			t.Fatalf("%s: %d results, other shard count had %d", name, len(dists), len(want))
		}
		for i := range dists {
			if dists[i] != want[i] {
				t.Fatalf("%s: emission %d distSq %g, other shard count %g", name, i, dists[i], want[i])
			}
		}
	}
}

func TestNNStagedOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(5150))
	els := randomElements(r, 800)
	sx, err := Build(append([]Element(nil), els...), &Options{Shards: 3, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()

	// Insert a nearby cluster, delete some bulk elements, and doom a
	// few of the staged inserts with later deletes.
	var staged []Element
	for i := 0; i < 60; i++ {
		e := Element{ID: uint64(50_000 + i), Box: CubeAt(V(30+r.Float64()*4, 30+r.Float64()*4, 30+r.Float64()*4), 0.5)}
		staged = append(staged, e)
	}
	if err := sx.StageInsert(staged...); err != nil {
		t.Fatal(err)
	}
	for _, e := range els[:50] {
		if err := sx.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range staged[:10] {
		if err := sx.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}

	live := nnLive(t, sx)
	for _, p := range []Vec3{V(31, 31, 31), V(80, 10, 60)} {
		want := nnBruteDists(live, p)
		for _, k := range []int{1, 4, 25} {
			got := drainNN(t, sx.NN(context.Background(), p, k), p)
			if len(got) != k {
				t.Fatalf("NN(%v, %d) returned %d elements", p, k, len(got))
			}
			for j, e := range got {
				if d := e.Box.DistSqToPoint(p); d != want[j] {
					t.Fatalf("NN(%v, %d) emission %d: distSq %g, brute force %g", p, k, j, d, want[j])
				}
			}
		}
	}
}

func TestNNWithLimitComposes(t *testing.T) {
	_, targets := queryTargets(t, 400)
	p := V(50, 50, 50)
	for name, q := range targets {
		if got := len(drainNN(t, q.NN(context.Background(), p, 10, WithLimit(3)), p)); got != 3 {
			t.Errorf("%s: NN(k=10, WithLimit(3)) returned %d results, want 3", name, got)
		}
		if got := len(drainNN(t, q.NN(context.Background(), p, 3, WithLimit(10)), p)); got != 3 {
			t.Errorf("%s: NN(k=3, WithLimit(10)) returned %d results, want 3", name, got)
		}
	}
}

// A small k must read strictly fewer pages than draining the index and
// sorting — the acceptance gate of the best-first traversal.
func TestNNReadsFewerPagesThanDrainAndSort(t *testing.T) {
	_, targets := queryTargets(t, 3000)
	p := V(50, 50, 50)
	for name, q := range targets {
		if err := q.DropCache(); err != nil {
			t.Fatal(err)
		}
		res := q.NN(context.Background(), p, 4)
		drainNN(t, res, p)
		nnReads := res.Stats().TotalReads

		if err := q.DropCache(); err != nil {
			t.Fatal(err)
		}
		full := q.Query(context.Background(), q.Bounds().Expand(1))
		n := 0
		for _, err := range full.All() {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		drainReads := full.Stats().TotalReads
		if nnReads == 0 || nnReads >= drainReads {
			t.Errorf("%s: NN(k=4) read %d pages, full drain %d — expected strictly fewer (and nonzero)",
				name, nnReads, drainReads)
		}
	}
}

func TestNNCancellation(t *testing.T) {
	_, targets := queryTargets(t, 1000)
	for name, q := range targets {
		ctx, cancel := context.WithCancel(context.Background())
		res := q.NN(ctx, V(50, 50, 50), 0)
		n := 0
		var sawErr error
		for _, err := range res.All() {
			if err != nil {
				sawErr = err
				break
			}
			n++
			if n == 15 {
				cancel()
			}
		}
		cancel()
		if !errors.Is(sawErr, context.Canceled) {
			t.Fatalf("%s: cancelled NN terminated with %v, want context.Canceled", name, sawErr)
		}
		// The index (and its cache) must stay fully usable.
		p := V(10, 90, 50)
		got := drainNN(t, q.NN(context.Background(), p, 5), p)
		if len(got) != 5 {
			t.Fatalf("%s: post-cancel NN returned %d results", name, len(got))
		}
	}
}

// TestNNRejectsNonFinitePoint: a query point with a NaN or infinite
// coordinate has no distance order; the session yields no element and
// an error naming the point, at every shard count.
func TestNNRejectsNonFinitePoint(t *testing.T) {
	_, targets := queryTargets(t, 2000)
	for _, k := range []int{1, 4} {
		q := targets[fmt.Sprintf("K=%d", k)]
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := V(x, 1, 1)
			res := q.NN(context.Background(), p, 5)
			n, err := 0, error(nil)
			for _, e := range res.All() {
				if e != nil {
					err = e
					break
				}
				n++
			}
			if n != 0 || err == nil || !strings.Contains(err.Error(), p.String()) {
				t.Errorf("K=%d: NN at %v streamed %d elements and error %v, want none and an error naming the point", k, p, n, err)
			}
			if res.Err() == nil {
				t.Errorf("K=%d: NN at %v: Err() is nil after a failed session", k, p)
			}
		}
	}
}
