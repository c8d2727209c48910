package flat

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// batchRuns drains res through Batches, copying each run out (a run is
// valid only until the next one).
func batchRuns(t *testing.T, res *Results) [][]Element {
	t.Helper()
	var runs [][]Element
	for run, err := range res.Batches() {
		if err != nil {
			t.Fatal(err)
		}
		if len(run) == 0 {
			t.Fatal("Batches yielded an empty run")
		}
		runs = append(runs, slices.Clone(run))
	}
	return runs
}

// allElements drains res through All, breaking out after stop elements
// when stop > 0.
func allElements(t *testing.T, res *Results, stop int) []Element {
	t.Helper()
	var out []Element
	for e, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
		if len(out) == stop {
			break
		}
	}
	return out
}

// TestBatchesMatchAll pins Batches to All and RangeQuery at K=1 and K=4,
// over v1 and v2 pages, with staged inserts and deletes the queries
// meet: the runs, concatenated, are All's elements and RangeQuery's, in
// order, with equal Stats. So they are under limits that cut a run, and
// when All's consumer breaks in the middle of a run, where Stats counts
// the elements delivered and the pages read for them, as WithLimit does.
func TestBatchesMatchAll(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	base := randomElements(r, 4000)
	staged := randomElements(r, 300)
	for i := range staged {
		staged[i].ID += 1 << 40
	}
	for _, k := range []int{1, 4} {
		for _, format := range []PageFormat{PageFormatV1, PageFormatV2} {
			ix, err := Build(slices.Clone(base), &Options{Shards: k, PageFormat: format, PageCapacity: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if err := ix.StageInsert(staged...); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(base); i += 5 {
				if err := ix.StageDelete(base[i].ID, base[i].Box); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("K=%d %s query %d", k, format, i)
				q := CubeAt(V(20+r.Float64()*60, 20+r.Float64()*60, 20+r.Float64()*60), 30+r.Float64()*20)
				checkBatches(t, name, ix, q)
			}
		}
	}
}

// checkBatches runs TestBatchesMatchAll's comparisons for one query.
func checkBatches(t *testing.T, name string, ix *Index, q MBR) {
	t.Helper()
	ctx := context.Background()
	// Queries share the page cache, so stats only compare equal when
	// every drain starts equally cold.
	cold := func() {
		if err := ix.DropCache(); err != nil {
			t.Fatal(err)
		}
	}
	cold()
	want, wantStats, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	cold()
	res := ix.Query(ctx, q)
	runs := batchRuns(t, res)
	if got := slices.Concat(runs...); !slices.Equal(got, want) {
		t.Fatalf("%s: Batches gives %d elements, RangeQuery %d, or a different order", name, len(got), len(want))
	}
	if res.Stats() != wantStats {
		t.Fatalf("%s: Batches stats %+v, RangeQuery %+v", name, res.Stats(), wantStats)
	}
	var staged int
	mid := -1 // an element strictly inside a run of several
	at := 0
	for _, run := range runs {
		if mid < 0 && len(run) > 2 && at > 0 {
			mid = at + len(run)/2
		}
		at += len(run)
		for _, e := range run {
			staged += int(e.ID >> 40)
		}
	}
	if mid < 0 || staged == 0 || len(runs) == len(want) {
		t.Fatalf("%s: %d elements in %d runs, %d staged: want runs of several elements and staged hits", name, len(want), len(runs), staged)
	}

	for _, limit := range []int{1, mid, len(want) - 1, len(want), len(want) + 7} {
		cold()
		res := ix.Query(ctx, q, WithLimit(limit))
		got := slices.Concat(batchRuns(t, res)...)
		cold()
		all := ix.Query(ctx, q, WithLimit(limit))
		gotAll := allElements(t, all, 0)
		n := min(limit, len(want))
		if !slices.Equal(got, want[:n]) || !slices.Equal(gotAll, want[:n]) {
			t.Fatalf("%s, limit %d: Batches %d and All %d elements, want RangeQuery's first %d", name, limit, len(got), len(gotAll), n)
		}
		if res.Stats() != all.Stats() || res.Stats().Results != n {
			t.Fatalf("%s, limit %d: Batches stats %+v, All %+v", name, limit, res.Stats(), all.Stats())
		}
		// All's consumer breaking after the limit-th element, in the middle
		// of a run, is the same early stop.
		cold()
		broken := ix.Query(ctx, q)
		if got := allElements(t, broken, n); !slices.Equal(got, want[:n]) {
			t.Fatalf("%s, break after %d: %d elements", name, n, len(got))
		}
		if broken.Stats() != res.Stats() || broken.Err() != nil {
			t.Fatalf("%s, break after %d: stats %+v, %v; WithLimit %+v", name, n, broken.Stats(), broken.Err(), res.Stats())
		}
	}
}
