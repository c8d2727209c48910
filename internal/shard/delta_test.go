package shard

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
)

// checkRuns holds an epoch to the run invariants of delta.go: each
// delta's runs tile its slab in order, each run at least twice the next
// (so at most bits.Len(n) runs over n entries), every node box the union
// of its children under one root box; the delete runs tile the delete
// list the same way, each sorted by ID.
func checkRuns(t *testing.T, ep *epoch) {
	t.Helper()
	for sh, d := range ep.deltas {
		covered := 0
		for i, r := range d.runs {
			if i > 0 && len(d.runs[i-1].Pos) < 2*len(r.Pos) {
				t.Fatalf("shard %d: run %d holds %d entries, run %d only %d", sh, i, len(r.Pos), i-1, len(d.runs[i-1].Pos))
			}
			for j, p := range slices.Sorted(slices.Values(r.Pos)) {
				if int(p) != covered+j {
					t.Fatalf("shard %d: run %d does not cover slab[%d:%d]", sh, i, covered, covered+len(r.Pos))
				}
			}
			covered += len(r.Pos)
			if top := r.Levels[r.Top()]; len(top) != 1 {
				t.Fatalf("shard %d: run %d has %d root boxes", sh, i, len(top))
			}
			for l, boxes := range r.Levels {
				for node, b := range boxes {
					u := geom.EmptyMBR()
					lo, hi := r.Children(l, node)
					for c := lo; c < hi; c++ {
						u = u.Union(r.Box(l-1, c, d.at))
					}
					if u != b {
						t.Fatalf("shard %d: run %d level %d node %d box %v, children's union %v", sh, i, l, node, b, u)
					}
				}
			}
		}
		if covered != len(d.slab) || len(d.runs) > bits.Len(uint(len(d.slab))) {
			t.Fatalf("shard %d: %d runs cover %d of %d staged inserts", sh, len(d.runs), covered, len(d.slab))
		}
	}
	covered := 0
	for i, r := range ep.delRuns {
		if i > 0 && len(ep.delRuns[i-1]) < 2*len(r) {
			t.Fatalf("delete run %d holds %d entries, run %d only %d", i, len(r), i-1, len(ep.delRuns[i-1]))
		}
		if !slices.IsSortedFunc(r, func(a, b int32) int { return cmp.Compare(ep.deletes[a].ID, ep.deletes[b].ID) }) {
			t.Fatalf("delete run %d is not sorted by ID", i)
		}
		for j, p := range slices.Sorted(slices.Values(r)) {
			if int(p) != covered+j {
				t.Fatalf("delete run %d does not cover deletes[%d:%d]", i, covered, covered+len(r))
			}
		}
		covered += len(r)
	}
	if covered != len(ep.deletes) || len(ep.delRuns) > bits.Len(uint(len(ep.deletes))) {
		t.Fatalf("%d delete runs cover %d of %d deletes", len(ep.delRuns), covered, len(ep.deletes))
	}
}

// TestDeltaRunsLogarithmic: after every one of n single stages, and
// after batches of any size, the runs keep their invariants — at most
// bits.Len(n) runs over n entries, whatever the batching.
func TestDeltaRunsLogarithmic(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	base := randomElements(r, 1500)
	set, err := Build(append([]geom.Element(nil), base...), Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	check := func() {
		t.Helper()
		set.pmu.RLock()
		defer set.pmu.RUnlock()
		checkRuns(t, set.staged)
	}
	for i, e := range randomElements(r, 700) {
		e.ID = 1<<40 + uint64(i)
		if err := set.StageInsert(e); err != nil {
			t.Fatal(err)
		}
		if err := set.StageDelete(base[i].ID, base[i].Box); err != nil {
			t.Fatal(err)
		}
		check()
	}
	// Shrinking batches are the worst case for a merge rule that only
	// absorbs runs no larger than the new one.
	for round := 0; round < 3; round++ {
		for n := 9; n > 0; n-- {
			batch := randomElements(r, n)
			for i := range batch {
				batch[i].ID = 1<<41 + uint64(round*100+n*10+i)
			}
			if err := set.StageInsert(batch...); err != nil {
				t.Fatal(err)
			}
			check()
		}
	}
}

// TestStagedNNTiesFollowStagingOrder is the regression test for a staged
// k-NN answer that depended on how the inserts were staged: 200 inserts
// with one identical box, staged as one batch (as a log replay stages
// them), one call at a time, and replayed by a reopen, must all stream
// the first ten staged — brute force ordered by (distance, staging
// order).
func TestStagedNNTiesFollowStagingOrder(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	base := randomElements(r, 2000)
	p := geom.V(500, 500, 500)
	ties := make([]geom.Element, 200)
	for i := range ties {
		ties[i] = geom.Element{ID: 1<<40 + uint64(i), Box: geom.CubeAt(p, 0.5)}
	}
	build := func(name string) (*Set, string) {
		dir := filepath.Join(t.TempDir(), name)
		set, err := Build(append([]geom.Element(nil), base...), Config{Shards: 1, PageCapacity: 16, Dir: dir, WAL: true})
		if err != nil {
			t.Fatal(err)
		}
		return set, dir
	}
	check := func(name string, set *Set) {
		t.Helper()
		var got []geom.Element
		if _, err := set.NNQuery(context.Background(), p, 10, func(e geom.Element, _ float64) bool {
			got = append(got, e)
			return len(got) < 10
		}); err != nil {
			t.Fatal(err)
		}
		// nnBruteSet breaks distance ties by ID, and the IDs ascend in
		// staging order.
		var want []geom.Element
		for _, h := range nnBruteSet(liveElements(t, set), p)[:10] {
			want = append(want, h.el)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ties[:10]) {
			t.Errorf("%s: nearest ten staged IDs %v, want the first ten staged", name, idsOf(got))
		}
	}

	batched, _ := build("batched")
	defer batched.Close()
	if err := batched.StageInsert(ties...); err != nil {
		t.Fatal(err)
	}
	check("one batch", batched)

	singly, dir := build("singly")
	for _, e := range ties {
		if err := singly.StageInsert(e); err != nil {
			t.Fatal(err)
		}
	}
	check("one call each", singly)
	if err := singly.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("replayed", reopened)
}

func idsOf(els []geom.Element) []uint64 {
	ids := make([]uint64, len(els))
	for i, e := range els {
		ids[i] = e.ID
	}
	return ids
}

// TestDeleteViewAllocatesNothing: a query's snapshot of 5 000 pending
// deletes costs no allocation.
func TestDeleteViewAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	set, err := Build(randomElements(r, 1000), Config{Shards: 2, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, e := range randomElements(r, 5000) {
		if err := set.StageDelete(1<<40+e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	var v deleteView
	n := testing.AllocsPerRun(100, func() {
		set.pmu.RLock()
		v = set.deleteViewLocked()
		set.pmu.RUnlock()
	})
	if n != 0 || len(v.deletes) != 5000 {
		t.Errorf("deleteViewLocked over %d deletes: %v allocations, want 0", len(v.deletes), n)
	}
}

// TestDeltaSnapshotStable: a view of a copy of the deltas and a delete
// view taken under pmu keeps answering element for element as when
// taken — its range hits, the nearest staged inserts by core.NN over the
// view alone, delete matches — while 100 more StageInsert and
// StageDelete calls land concurrently (run under -race).
func TestDeltaSnapshotStable(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	base := randomElements(r, 1500)
	set, err := Build(append([]geom.Element(nil), base...), Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	staged := randomElements(r, 300)
	for i := range staged {
		staged[i].ID = 1<<40 + uint64(i)
	}
	for i := 0; i < len(staged); i += 50 {
		if err := set.StageInsert(staged[i : i+50]...); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range append(base[:20:20], staged[:20]...) {
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	queries := append(testQueries(r, 10), set.World())
	var points []geom.Vec3
	for _, e := range staged[:10] {
		points = append(points, e.Box.Center())
	}

	set.pmu.RLock()
	deltas, dels := slices.Clone(set.staged.deltas), set.deleteViewLocked()
	set.pmu.RUnlock()
	type answers struct {
		candidates [][]uint64
		nearest    [][]nnHit
		doomed     []bool
	}
	observe := func() answers {
		var a answers
		var v view
		v.take(deltas, dels)
		for _, q := range queries {
			var seqs []uint64
			for _, si := range v.stagedHits(q) {
				seqs = append(seqs, si.seq)
			}
			a.candidates = append(a.candidates, seqs)
		}
		// The staged-only walk: the snapshot's runs as core.NN's overlay,
		// with no index beside them.
		for _, p := range points {
			var near []nnHit
			_, err := core.NN(context.Background(), nil, &v, p, func(e geom.Element, d float64) bool {
				near = append(near, nnHit{el: e, distSq: d})
				return len(near) < 10
			})
			if err != nil {
				t.Fatal(err)
			}
			a.nearest = append(a.nearest, near)
		}
		for _, e := range append(base[:100:100], staged...) {
			a.doomed = append(a.doomed, dels.matches(e))
		}
		return a
	}
	want := observe()

	var wg sync.WaitGroup
	landed := make(chan struct{}) // closed once the first stage landed
	wg.Add(1)
	go func() {
		defer wg.Done()
		more := randomElements(rand.New(rand.NewSource(104)), 50)
		for i, e := range more {
			e.ID = 1<<41 + uint64(i)
			err := set.StageInsert(e)
			if i == 0 {
				close(landed)
			}
			if err != nil {
				t.Error(err)
				return
			}
			d := staged[20+i]
			if i%2 == 1 {
				d = base[20+i]
			}
			if err := set.StageDelete(d.ID, d.Box); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	<-landed
	for i := 0; i < 10; i++ {
		if got := observe(); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: the snapshot answers differently while more is staged", i)
		}
	}
	wg.Wait()
	if got := observe(); !reflect.DeepEqual(got, want) {
		t.Fatal("the snapshot answers differently after 100 more stages")
	}
	if d := set.DeltaStats(); d.Inserts != 350 || d.Deletes != 90 {
		t.Fatalf("live delta holds %d inserts, %d deletes; want 350, 90", d.Inserts, d.Deletes)
	}
}

// fuzzBox maps one byte to a staged box: 64 lattice centres times four
// sides, so equal boxes, and with them distance ties, are common. Byte 0
// is the far box of TestStagedNNTiesFollowStagingOrder.
func fuzzBox(b byte) geom.MBR {
	if b == 0 {
		return geom.CubeAt(geom.V(500, 500, 500), 0.5)
	}
	c := geom.V(float64(b%4), float64(b/4%4), float64(b/16%4)).Scale(30).Add(geom.V(5, 5, 5))
	return geom.CubeAt(c, 0.5*float64(1+b/64))
}

// FuzzStagedDelta decodes the bytes into staging operations, two bytes
// each: batch inserts of 1–16 elements, single inserts, deletes of a
// bulkloaded, a staged or an absent element, and re-inserts after a
// delete; staged IDs repeat. After every operation each query equals a
// linear scan over the staged inserts and deletes: the whole range
// stream over four boxes (checkRangeModel), the k-NN stream
// (checkNNModel), and matches and matchesAfter; and the runs keep their
// invariants (checkRuns).
func FuzzStagedDelta(f *testing.F) {
	ties := make([]byte, 0, 400)
	for range 200 {
		ties = append(ties, 1, 0) // the 200-tie case, one insert at a time
	}
	f.Add(ties)
	f.Add([]byte{0, 7, 1, 5, 1, 5, 2, 3, 3, 1, 5, 0, 0, 200, 4, 9, 1, 5, 3, 2, 5, 1})
	f.Add([]byte{0, 255, 0, 31, 3, 0, 3, 4, 2, 0, 5, 0, 5, 1, 1, 21, 1, 21, 1, 21, 3, 7})
	f.Add([]byte{1, 21, 1, 22, 3, 0, 0, 21, 3, 1}) // deletes of staged inserts inside a checked box

	// Bulkloaded twins of fifteen lattice boxes tie exactly with the
	// staged inserts on them, at every probe point.
	base := randomElements(rand.New(rand.NewSource(107)), 200)
	for b := 1; b < 256; b += 17 {
		base = append(base, geom.Element{ID: 1<<45 + uint64(b), Box: fuzzBox(byte(b))})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := Build(append([]geom.Element(nil), base...), Config{Shards: 2, PageCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		var (
			staged  []stagedInsert
			deletes []pendingDelete
			clock   uint64
		)
		insert := func(els ...geom.Element) {
			if err := set.StageInsert(els...); err != nil {
				t.Fatal(err)
			}
			for _, e := range els {
				clock++
				staged = append(staged, stagedInsert{el: e, seq: clock})
			}
		}
		remove := func(e geom.Element) {
			if err := set.StageDelete(e.ID, e.Box); err != nil {
				t.Fatal(err)
			}
			clock++
			deletes = append(deletes, pendingDelete{ID: e.ID, Box: e.Box, seq: clock})
		}
		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			arg := data[i+1]
			staging := geom.Element{ID: 1<<40 + uint64(arg%32), Box: fuzzBox(arg)}
			switch data[i] % 6 {
			case 0:
				rng := rand.New(rand.NewSource(int64(i)<<8 | int64(arg)))
				batch := make([]geom.Element, 1+arg%16)
				for j := range batch {
					b := byte(rng.Intn(256))
					batch[j] = geom.Element{ID: 1<<40 + uint64(b%32), Box: fuzzBox(b)}
				}
				insert(batch...)
			case 1:
				insert(staging)
			case 2:
				remove(base[int(arg)%len(base)])
			case 3:
				if len(staged) > 0 {
					remove(staged[int(arg)%len(staged)].el)
				}
			case 4:
				remove(geom.Element{ID: 1<<50 + uint64(arg), Box: staging.Box})
			case 5:
				if len(deletes) > 0 {
					d := deletes[int(arg)%len(deletes)]
					insert(geom.Element{ID: d.ID, Box: d.Box})
				}
			}
			checkStagedDelta(t, set, base, staged, deletes, staging.Box.Center())
		}
	})
}

// checkStagedDelta holds set's staged state to the linear scans over
// staged and deletes (the model, in staging order). p is one NN probe
// point besides the fixed ones.
func checkStagedDelta(t *testing.T, set *Set, base []geom.Element, staged []stagedInsert, deletes []pendingDelete, p geom.Vec3) {
	t.Helper()
	dels := checkStagedRuns(t, set, staged, deletes)
	checkRangeModel(t, set, staged, deletes)

	// The k-NN model: the bulkloaded elements as stored, minus deletes,
	// plus the staged inserts no later delete dooms.
	var live []stagedInsert // seq 0: bulkloaded
	for _, e := range bulkElements(t, set) {
		if !matchesDelete(deletes, e) {
			live = append(live, stagedInsert{el: e})
		}
	}
	for _, si := range staged {
		if !matchesDeleteAfter(deletes, si.el, si.seq) {
			live = append(live, si)
		}
	}
	for _, pt := range []geom.Vec3{p, geom.V(500, 500, 500), geom.V(50, 50, 50)} {
		checkNNModel(t, set, live, pt)
	}

	for _, e := range base {
		if dels.matches(e) != matchesDelete(deletes, e) {
			t.Fatalf("matches(%v) disagrees with the linear scan", e)
		}
	}
	for _, si := range staged {
		if dels.matches(si.el) != matchesDelete(deletes, si.el) || dels.matchesAfter(si.el, si.seq) != matchesDeleteAfter(deletes, si.el, si.seq) {
			t.Fatalf("matches or matchesAfter(%v, %d) disagrees with the linear scan", si.el, si.seq)
		}
	}
}

// checkStagedRuns holds set's staged lists and runs to the model under
// pmu, and returns the delete view it took there.
func checkStagedRuns(t *testing.T, set *Set, staged []stagedInsert, deletes []pendingDelete) deleteView {
	t.Helper()
	set.pmu.RLock()
	defer set.pmu.RUnlock()
	ep, dels := set.staged, set.deleteViewLocked()
	checkRuns(t, ep)
	var slabs []stagedInsert
	for _, d := range ep.deltas {
		slabs = append(slabs, d.slab...)
	}
	slices.SortFunc(slabs, func(a, b stagedInsert) int { return cmp.Compare(a.seq, b.seq) })
	if !slices.Equal(slabs, staged) || !slices.Equal(ep.deletes, deletes) {
		t.Fatalf("the set stages %d inserts, %d deletes; the model %d, %d", len(slabs), len(ep.deletes), len(staged), len(deletes))
	}

	return dels
}

// checkRangeModel holds StreamQuery's whole stream over four boxes to
// the model: first, for each shard whose bounds meet the box, in shard
// order, its own crawl minus the deletes; then the staged inserts that
// meet the box and that no later delete dooms, in staging order.
// fuzzBox(0) lies outside every shard's bounds.
func checkRangeModel(t *testing.T, set *Set, staged []stagedInsert, deletes []pendingDelete) {
	t.Helper()
	ctx := context.Background()
	for _, q := range []geom.MBR{fuzzBox(0), fuzzBox(1).Expand(20), geom.CubeAt(geom.V(50, 50, 50), 60), geom.CubeAt(geom.V(-50, 0, 0), 1)} {
		var want []geom.Element
		for _, ix := range set.now().shards {
			if !ix.Bounds().Intersects(q) {
				continue
			}
			got, _, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range got {
				if !matchesDelete(deletes, e) {
					want = append(want, e)
				}
			}
		}
		for _, si := range staged {
			if si.el.Box.Intersects(q) && !matchesDeleteAfter(deletes, si.el, si.seq) {
				want = append(want, si.el)
			}
		}
		got, st := collectStream(t, set, ctx, q)
		if !slices.Equal(got, want) {
			t.Fatalf("box %v: streamed %d elements, the model %d, or in another order", q, len(got), len(want))
		}
		if st.Results != len(got) {
			t.Fatalf("box %v: Results %d, %d elements emitted", q, st.Results, len(got))
		}
	}
}

// bulkElements returns every bulkloaded element of set's shards as
// stored (v2 pages decode boxes widened), staged updates not applied.
func bulkElements(t *testing.T, set *Set) []geom.Element {
	t.Helper()
	inf := math.Inf(1)
	var els []geom.Element
	for _, ix := range set.now().shards {
		got, _, err := ix.RangeQuery(geom.Box(geom.V(-inf, -inf, -inf), geom.V(inf, inf, inf)))
		if err != nil {
			t.Fatal(err)
		}
		els = append(els, got...)
	}
	return els
}

// checkNNModel holds NNQuery's stream at pt, taken whole and cut at k
// of 1 and 10, to live (seq 0 marks a bulkloaded element) ordered by
// (distance, bulkloaded before staged, staging order): position for
// position, except that bulkloaded elements at one distance may come in
// any order. A cut stream is the whole one's prefix.
func checkNNModel(t *testing.T, set *Set, live []stagedInsert, pt geom.Vec3) {
	t.Helper()
	want := slices.Clone(live)
	slices.SortStableFunc(want, func(a, b stagedInsert) int {
		return cmp.Or(cmp.Compare(a.el.Box.DistSqToPoint(pt), b.el.Box.DistSqToPoint(pt)), cmp.Compare(a.seq, b.seq))
	})
	var streams [3][]nnHit
	for i, k := range []int{0, 1, 10} {
		_, err := set.NNQuery(context.Background(), pt, k, func(e geom.Element, d float64) bool {
			streams[i] = append(streams[i], nnHit{el: e, distSq: d})
			return k == 0 || len(streams[i]) < k
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := streams[0]
	for i, k := range []int{1, 10} {
		if n := min(k, len(got)); !slices.Equal(streams[i+1], got[:n]) {
			t.Fatalf("k=%d at %v: %v, not the whole stream's first %d", k, pt, streams[i+1], n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("at %v: %d elements streamed, the model has %d", pt, len(got), len(want))
	}
	for lo := 0; lo < len(want); {
		d := want[lo].el.Box.DistSqToPoint(pt)
		hi, bulk := lo, map[geom.Element]int{}
		for ; hi < len(want) && want[hi].el.Box.DistSqToPoint(pt) == d; hi++ {
			if want[hi].seq == 0 {
				bulk[want[hi].el]++
			}
		}
		for i := lo; i < hi; i++ {
			g, w := got[i], want[i]
			switch {
			case g.distSq != d:
				t.Fatalf("at %v: emission %d at distSq %g, the model's at %g", pt, i, g.distSq, d)
			case w.seq == 0 && bulk[g.el] == 0:
				t.Fatalf("at %v: emission %d is %v, not a bulkloaded element at distSq %g", pt, i, g.el, d)
			case w.seq != 0 && g.el != w.el:
				t.Fatalf("at %v: emission %d is %v, the model has staged %v (seq %d)", pt, i, g.el, w.el, w.seq)
			}
			if w.seq == 0 {
				bulk[g.el]--
			}
		}
		lo = hi
	}
}
