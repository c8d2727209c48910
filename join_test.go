package flat

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

type joinKey struct{ a, b uint64 }

// bruteJoin is the reference: every (a, b) pair within maxDist by
// box-to-box distance, optionally refined by pred.
func bruteJoin(as, bs []Element, maxDist float64, pred func(a, b Element) bool) map[joinKey]bool {
	out := make(map[joinKey]bool)
	for _, a := range as {
		for _, b := range bs {
			if a.Box.DistSq(b.Box) > maxDist*maxDist {
				continue
			}
			if pred != nil && !pred(a, b) {
				continue
			}
			out[joinKey{a.ID, b.ID}] = true
		}
	}
	return out
}

func collectJoin(t *testing.T, outer, inner *Index, maxDist float64, pred func(a, b Element) bool) (map[joinKey]bool, JoinStats) {
	t.Helper()
	got := make(map[joinKey]bool)
	st, err := Join(context.Background(), outer, inner, maxDist, pred, func(a, b Element) bool {
		k := joinKey{a.ID, b.ID}
		if got[k] {
			t.Fatalf("pair (%d, %d) emitted twice", a.ID, b.ID)
		}
		got[k] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

func checkJoinPairs(t *testing.T, got, want map[joinKey]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("join emitted %d pairs, brute force has %d", len(got), len(want))
	}
	missing := make([]joinKey, 0)
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].a < missing[j].a })
	if len(missing) > 0 {
		t.Fatalf("join missed %d pairs, e.g. %v", len(missing), missing[0])
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	as := randomElements(r, 500)
	bs := make([]Element, 700)
	for i := range bs {
		c := V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		bs[i] = Element{ID: uint64(100_000 + i), Box: CubeAt(c, 0.5+r.Float64())}
	}

	outer, err := Build(append([]Element(nil), as...), &Options{pageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer outer.Close()
	inner, err := Build(append([]Element(nil), bs...), &Options{Shards: 3, pageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()

	check := func(as, bs []Element) {
		t.Helper()
		for _, maxDist := range []float64{0, 1.5, 6} {
			want := bruteJoin(as, bs, maxDist, nil)
			got, st := collectJoin(t, outer, inner, maxDist, nil)
			checkJoinPairs(t, got, want)
			if st.Pairs != len(want) {
				t.Errorf("maxDist %g: stats.Pairs = %d, want %d", maxDist, st.Pairs, len(want))
			}
			if st.Blocks == 0 || st.Outer.TotalReads == 0 || st.Inner.TotalReads == 0 {
				t.Errorf("maxDist %g: implausible stats %+v", maxDist, st)
			}
		}
	}
	check(as, bs)

	// Staged inserts join like bulkloaded ones, beyond the bulk bounds
	// too: Bounds grows only at Rebuild.
	stagedA := []Element{
		{ID: 900_000, Box: CubeAt(V(1000, 1000, 1000), 1)},
		{ID: 900_001, Box: CubeAt(V(-300, 50, 50), 1)},
	}
	stagedB := []Element{
		{ID: 950_000, Box: CubeAt(V(1000.5, 1000, 1000), 1)},
		{ID: 950_001, Box: CubeAt(V(-300, 50, 52), 1)},
	}
	if err := outer.StageInsert(stagedA...); err != nil {
		t.Fatal(err)
	}
	if err := inner.StageInsert(stagedB...); err != nil {
		t.Fatal(err)
	}
	check(slices.Concat(as, stagedA), slices.Concat(bs, stagedB))
}

func TestJoinPredRefines(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	els := randomElements(r, 400)
	ix, err := Build(append([]Element(nil), els...), &Options{pageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Self-join with an ID-ordering predicate: each unordered pair once,
	// no self-pairs.
	pred := func(a, b Element) bool { return a.ID < b.ID }
	want := bruteJoin(els, els, 2, pred)
	got, _ := collectJoin(t, ix, ix, 2, pred)
	checkJoinPairs(t, got, want)
}

func TestJoinEarlyStopAndCancel(t *testing.T) {
	_, targets := queryTargets(t, 1000)
	outer := targets["K=1"]
	inner := targets["K=4"]

	n := 0
	st, err := Join(context.Background(), outer, inner, 3, nil, func(a, b Element) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || st.Pairs != 10 {
		t.Fatalf("early stop emitted %d pairs (stats %d), want 10", n, st.Pairs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	n = 0
	_, err = Join(ctx, outer, inner, 3, nil, func(a, b Element) bool {
		n++
		if n == 5 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join returned %v, want context.Canceled", err)
	}
}
