package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

// pageRecorder is a storage.Pool that notes every page read through it,
// by shard, tallied or not.
type pageRecorder struct {
	storage.Pool
	pages map[storage.PageID]bool
}

func (p *pageRecorder) ReadInto(id storage.PageID, local *storage.Stats) ([]byte, error) {
	p.pages[id] = true
	return p.Pool.ReadInto(id, local)
}

// distinct returns how many distinct pages of shard sh (all shards: -1)
// were read since the last reset.
func (p *pageRecorder) distinct(sh int) uint64 {
	n := uint64(0)
	for id := range p.pages {
		if s, _ := storage.SplitShardPageID(id); sh < 0 || s == sh {
			n++
		}
	}
	return n
}

func (p *pageRecorder) reset() { clear(p.pages) }

// recordPages serves every shard of set through one pageRecorder over
// the set's routed Pool, each shard's index a core.Index.WithPool view.
// The set must not be rebuilt while it is recorded.
func recordPages(set *Set) *pageRecorder {
	rec := &pageRecorder{Pool: set.Pool(), pages: make(map[storage.PageID]bool)}
	set.pmu.Lock()
	defer set.pmu.Unlock()
	g := &generation{m: set.cur.m, shards: make([]*core.Index, len(set.cur.shards)), pagers: set.cur.pagers}
	for i, ix := range set.cur.shards {
		g.shards[i] = ix.WithPool(rec)
	}
	set.cur = g
	return rec
}

// nnHit is one element of a best-first stream with its exact squared
// distance from the query point.
type nnHit struct {
	el     geom.Element
	distSq float64
}

// nnBruteSet is the reference answer: every live element (bulk minus
// staged deletes plus surviving staged inserts) sorted by squared
// distance from p.
func nnBruteSet(els []geom.Element, p geom.Vec3) []nnHit {
	out := make([]nnHit, 0, len(els))
	for _, e := range els {
		out = append(out, nnHit{el: e, distSq: e.Box.DistSqToPoint(p)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].distSq != out[j].distSq {
			return out[i].distSq < out[j].distSq
		}
		return out[i].el.ID < out[j].el.ID
	})
	return out
}

// liveElements recovers the set's live element view (decoded boxes,
// overlay applied) via a range query over all of space, so NN parity
// holds bit-for-bit under v2 quantization. The box is all of space, not
// the world: the world grows only at Rebuild, so staged inserts can lie
// outside it.
func liveElements(t *testing.T, set *Set) []geom.Element {
	t.Helper()
	inf := math.Inf(1)
	els, _ := collectStream(t, set, context.Background(), geom.Box(geom.V(-inf, -inf, -inf), geom.V(inf, inf, inf)))
	return els
}

// checkSetNN drains NNQuery fully and checks the stream against the
// brute-force answer: the same multiset of elements, nondecreasing
// reported distances, each reported distance equal to the recomputed
// one, and positional distance agreement with the sorted reference (IDs
// may legitimately swap within an equal-distance run).
func checkSetNN(t *testing.T, set *Set, p geom.Vec3) {
	t.Helper()
	want := nnBruteSet(liveElements(t, set), p)
	var got []nnHit
	st, err := set.NNQuery(context.Background(), p, 0, func(e geom.Element, distSq float64) bool {
		got = append(got, nnHit{el: e, distSq: distSq})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("NNQuery(%v) emitted %d elements, want %d", p, len(got), len(want))
	}
	if st.Results != len(got) {
		t.Errorf("stats.Results = %d, want %d", st.Results, len(got))
	}
	// Staged duplicates of a bulk element are legal, so the sets are
	// compared as multisets.
	missing := make(map[geom.Element]int, len(want))
	for _, h := range want {
		missing[h.el]++
	}
	prev := math.Inf(-1)
	for i, h := range got {
		if h.distSq < prev {
			t.Fatalf("emission %d: distance %g after %g (order regressed)", i, h.distSq, prev)
		}
		prev = h.distSq
		if rec := h.el.Box.DistSqToPoint(p); rec != h.distSq {
			t.Fatalf("emission %d: reported distSq %g, recomputed %g", i, h.distSq, rec)
		}
		if h.distSq != want[i].distSq {
			t.Fatalf("emission %d: distSq %g, brute force has %g", i, h.distSq, want[i].distSq)
		}
		if missing[h.el] == 0 {
			t.Fatalf("emission %d: element %+v is not live, or emitted more often than it is", i, h.el)
		}
		missing[h.el]--
	}
}

func TestSetNNMatchesBruteForce(t *testing.T) {
	for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
		r := rand.New(rand.NewSource(401))
		els := randomElements(r, 2500)
		set, err := Build(els, Config{Shards: 5, PageCapacity: 16, PageFormat: format})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			p := geom.V(r.Float64()*160-30, r.Float64()*160-30, r.Float64()*160-30)
			checkSetNN(t, set, p)
		}
		set.Close()
	}
}

func TestSetNNStagedOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(907))
	els := randomElements(r, 1500)
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Stage a tight cluster of inserts near one corner, delete a swath
	// of bulk elements, and doom a few of the staged inserts themselves
	// with later deletes.
	staged := stageCluster(t, set, 10_000, 200, geom.CubeAt(geom.V(10, 10, 10), 8))
	for _, e := range els[:120] {
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range staged[:30] {
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	// A staged insert so far out that its squared distance from any query
	// point overflows to +Inf must still be streamed, after every bulk
	// element.
	stageCluster(t, set, 20_000, 1, geom.CubeAt(geom.V(1e200, 1e200, 1e200), 1))

	for _, p := range []geom.Vec3{
		geom.V(10, 10, 10),          // inside the staged cluster
		geom.V(50, 50, 50),          // bulk interior
		geom.V(-40, 90, 10),         // outside the world
		geom.V(1e300, 1e300, 1e300), // every distance overflows
	} {
		checkSetNN(t, set, p)
	}

	// A staged insert exactly as far from p as a bulk element ranks
	// after it: give the nearest bulk element a staged twin (its box as
	// the stream decodes it) and take the first two of the stream.
	ctx := context.Background()
	p := geom.V(50, 50, 50)
	var nearest geom.Element
	if _, err := set.NNQuery(ctx, p, 1, func(e geom.Element, _ float64) bool { nearest = e; return false }); err != nil {
		t.Fatal(err)
	}
	const twinID = 99_999
	if nearest.ID >= 10_000 {
		t.Fatalf("nearest element to %v is staged (id %d); the case needs a bulk one", p, nearest.ID)
	}
	if err := set.StageInsert(geom.Element{ID: twinID, Box: nearest.Box}); err != nil {
		t.Fatal(err)
	}
	var first []nnHit
	if _, err := set.NNQuery(ctx, p, 2, func(e geom.Element, d float64) bool {
		first = append(first, nnHit{el: e, distSq: d})
		return len(first) < 2
	}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].el.ID != nearest.ID || first[1].el.ID != twinID || first[0].distSq != first[1].distSq {
		t.Fatalf("equidistant pair streamed as %+v, want bulk %d then its staged twin %d at one distance", first, nearest.ID, twinID)
	}
	checkSetNN(t, set, p)

	// A consumer that stops on a staged element gets nothing after it —
	// in particular not the bulk element whose arrival flushed it — and
	// Results counts exactly what was delivered.
	calls, stoppedOn := 0, uint64(0)
	st, err := set.NNQuery(ctx, geom.V(30, 10, 10), 0, func(e geom.Element, _ float64) bool {
		calls++
		stoppedOn = e.ID
		return e.ID < 10_000
	})
	if err != nil {
		t.Fatal(err)
	}
	if stoppedOn < 10_000 || stoppedOn == twinID {
		t.Fatalf("stream ended on element %d after %d emissions, never reaching the staged cluster", stoppedOn, calls)
	}
	if calls < 2 {
		t.Fatalf("the staged cluster came first (%d emissions); the case needs a bulk element ahead of it", calls)
	}
	if st.Results != calls {
		t.Fatalf("stats.Results = %d, but emit was called %d times", st.Results, calls)
	}
}

// A stream stopped at its k-th element has visited no record and no
// object page whose distance bound exceeds that element's distance: the
// shards share one frontier, so nothing beyond the k-th result is ever
// popped, in any shard. Records enumerates every shard's bounds; the
// stats only count visits, so the check is by count.
func TestSetNNVisitsNothingBeyondKth(t *testing.T) {
	r := rand.New(rand.NewSource(1999))
	set, err := Build(randomElements(r, 3000), Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	var partitions, pages []geom.MBR
	for i := 0; i < set.NumShards(); i++ {
		err := set.Shard(i).Records(func(r core.Record) error {
			partitions = append(partitions, r.PartitionMBR)
			pages = append(pages, r.PageMBR)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	within := func(boxes []geom.MBR, p geom.Vec3, distSq float64) int {
		n := 0
		for _, b := range boxes {
			if b.DistSqToPoint(p) <= distSq {
				n++
			}
		}
		return n
	}
	for i := 0; i < 30; i++ {
		p := geom.V(r.Float64()*120-10, r.Float64()*120-10, r.Float64()*120-10)
		for _, k := range []int{1, 10, 50} {
			n, kth := 0, 0.0
			st, err := set.NNQuery(context.Background(), p, k, func(_ geom.Element, d float64) bool {
				n++
				kth = d
				return n < k
			})
			if err != nil {
				t.Fatal(err)
			}
			okPages, okRecords := within(pages, p, kth), within(partitions, p, kth)
			if st.PagesVisited > okPages || st.RecordsVisited > okRecords {
				t.Errorf("p=%v k=%d: visited %d pages / %d records, but only %d / %d have a bound within the k-th distance",
					p, k, st.PagesVisited, st.RecordsVisited, okPages, okRecords)
			}
		}
	}
}

// A k=1 probe into a well-separated corner must not pay for distant
// shards: the directory's bound distances defer them, and the early
// stop abandons them unopened.
func TestSetNNOpensShardsByDistance(t *testing.T) {
	r := rand.New(rand.NewSource(533))
	var els []geom.Element
	id := uint64(0)
	// Four well-separated clusters; the Hilbert split sends each to its
	// own shard.
	centers := []geom.Vec3{geom.V(5, 5, 5), geom.V(95, 5, 5), geom.V(5, 95, 95), geom.V(95, 95, 95)}
	for _, c := range centers {
		for i := 0; i < 300; i++ {
			off := geom.V(r.Float64()*6-3, r.Float64()*6-3, r.Float64()*6-3)
			els = append(els, geom.Element{ID: id, Box: geom.CubeAt(c.Add(off), 0.4)})
			id++
		}
	}
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	p := geom.V(5, 5, 5)
	early, err := set.NNQuery(context.Background(), p, 1, func(geom.Element, float64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}

	var n int
	full, err := set.NNQuery(context.Background(), p, 0, func(geom.Element, float64) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(els) {
		t.Fatalf("full drain emitted %d, want %d", n, len(els))
	}
	if early.TotalReads == 0 || early.TotalReads >= full.TotalReads {
		t.Fatalf("k=1 read %d pages, full drain %d — expected strictly fewer (and nonzero)",
			early.TotalReads, full.TotalReads)
	}
	// With four well-separated clusters the k=1 probe should stay in
	// one shard's page file: well under a quarter of the full drain.
	if early.TotalReads*4 >= full.TotalReads {
		t.Errorf("k=1 read %d of %d pages; expected under a quarter (one shard)",
			early.TotalReads, full.TotalReads)
	}
}

func TestSetNNCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	els := randomElements(r, 1200)
	set, err := Build(els, Config{Shards: 3, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rec := recordPages(set)

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	st, err := set.NNQuery(ctx, geom.V(50, 50, 50), 0, func(geom.Element, float64) bool {
		n++
		if n == 25 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled NNQuery returned %v, want context.Canceled", err)
	}
	// The stats returned beside the error cover exactly the work done:
	// every emission, and every distinct page this query read, once.
	if st.Results != 25 || st.RecordsVisited == 0 || st.PagesVisited == 0 {
		t.Errorf("cancelled NNQuery stats %+v: want 25 results and the visits behind them", st)
	}
	if read := rec.distinct(-1); st.TotalReads == 0 || st.TotalReads != read ||
		st.TotalReads != st.SeedReads+st.MetadataReads+st.ObjectReads {
		t.Errorf("cancelled NNQuery stats %+v: the query read %d distinct pages", st, read)
	}
	// The set must stay fully usable afterwards.
	checkSetNN(t, set, geom.V(20, 80, 40))
}

// TestNNQueryAllocations pins the allocation count of a warm K=4 k-NN
// query stopped at k=10, without and with a staged delta of several runs
// and deletes: the query scratch and the delta view come from pools with
// grown buffers, and a page read hands out the pager's own bytes, so the
// query allocates nothing.
func TestNNQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the query scratch at random")
	}
	r := rand.New(rand.NewSource(23))
	els := randomElements(r, 20000)
	set, err := Build(els, Config{Shards: 4, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	c := geom.V(30, 60, 40)
	points := []geom.Vec3{c, geom.V(80, 20, 70)}
	measure := func(name string) {
		for _, p := range points {
			n := 0
			emit := func(geom.Element, float64) bool { n++; return n < 10 }
			query := func() {
				n = 0
				if _, err := set.NNQuery(context.Background(), p, 10, emit); err != nil {
					t.Fatal(err)
				}
			}
			query() // warm the pools and the pages
			if a := testing.AllocsPerRun(50, query); a != 0 {
				t.Errorf("%s, k-NN at %v: %v allocations, want 0", name, p, a)
			}
		}
	}
	measure("no delta")

	// Batches of 8, 4, 2 and 1 at one spot stay separate runs (each is at
	// least twice the next) of the one shard they route to.
	id := uint64(1 << 40)
	for _, size := range []int{8, 4, 2, 1} {
		batch := make([]geom.Element, size)
		for i := range batch {
			batch[i] = geom.Element{ID: id, Box: geom.CubeAt(c.Add(geom.V(r.Float64(), r.Float64(), r.Float64())), 0.2)}
			id++
		}
		if err := set.StageInsert(batch...); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range els[:20] {
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	set.pmu.RLock()
	runs := len(set.staged.insRuns)
	set.pmu.RUnlock()
	if runs < 4 {
		t.Fatalf("the staged delta holds %d runs, want at least 4", runs)
	}
	n, staged := 0, 0
	_, err = set.NNQuery(context.Background(), c, 10, func(e geom.Element, _ float64) bool {
		n++
		staged += int(e.ID >> 40)
		return n < 10
	})
	if err != nil || staged == 0 {
		t.Fatalf("k-NN at the staged spot %v took no staged insert (%v)", c, err)
	}
	measure("staged delta")
}

// BenchmarkSetNN is the shard layer's k-NN microbenchmark: a warm pool,
// v2 pages, the stream stopped at its k-th element. allocs/op and
// visits/op (records + object pages popped off the frontier) repeat
// exactly for the fixed seed; ns/op is noise-bound on a small box.
func BenchmarkSetNN(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	els := randomElements(r, 60_000)
	points := make([]geom.Vec3, 64)
	for i := range points {
		points[i] = geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
	}
	for _, shards := range []int{1, 4} {
		set, err := Build(els, Config{Shards: shards, PageFormat: storage.PageFormatV2})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("K=%d/k=%d", shards, k), func(b *testing.B) {
				b.ReportAllocs()
				ctx := context.Background()
				visits := 0
				for i := 0; i < b.N; i++ {
					n := 0
					st, err := set.NNQuery(ctx, points[i%len(points)], k, func(geom.Element, float64) bool { n++; return n < k })
					if err != nil {
						b.Fatal(err)
					}
					visits += st.RecordsVisited + st.PagesVisited
				}
				b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
			})
		}
		set.Close()
	}
}

// TestMixedIDWidthsAcrossShards builds a K=4 v2 set whose shards store
// ids at different widths: a cluster in one corner carries ids spread
// over all 64 bits, so its shard keeps the full-width (flags 0) page
// layout and 126 elements a page, while the other shards pack narrow
// offsets and more elements a page. Range, Count and NN answers must
// match brute force across the mix.
func TestMixedIDWidthsAcrossShards(t *testing.T) {
	// 140 elements a shard: one narrow page, or two full-width ones.
	r := rand.New(rand.NewSource(61))
	els := randomElements(r, 560)
	for i := range els {
		if c := els[i].Box.Center(); c.X < 20 && c.Y < 20 && c.Z < 20 {
			els[i].ID |= uint64(i%7+1) << 57
		}
	}
	orig := append([]geom.Element(nil), els...)
	set, err := Build(els, Config{Shards: 4, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	inf := math.Inf(1)
	everything := geom.Box(geom.V(-inf, -inf, -inf), geom.V(inf, inf, inf))
	var wide, narrow int
	for s, ix := range set.now().shards {
		got, _, err := ix.RangeQuery(everything)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := got[0].ID, got[0].ID
		for _, e := range got {
			lo, hi = min(lo, e.ID), max(hi, e.ID)
		}
		perPage := float64(ix.Len()) / float64(ix.NumPartitions())
		if hi-lo >= 1<<56 {
			wide++
		} else if perPage > storage.ObjectPageCapacityV2 {
			narrow++
		}
		t.Logf("shard %d: ids %#x..%#x, %.1f elements/page", s, lo, hi, perPage)
	}
	if wide == 0 || narrow == 0 {
		t.Fatalf("%d full-width shards and %d packed narrow shards, want at least one of each", wide, narrow)
	}

	ctx := context.Background()
	for _, q := range []geom.MBR{
		everything,
		geom.CubeAt(geom.V(10, 10, 10), 15), // the full-width corner
		geom.CubeAt(geom.V(50, 50, 50), 30), // across shards
		geom.CubeAt(geom.V(80, 20, 70), 10),
	} {
		want := brute(orig, q)
		got, _ := collectStream(t, set, ctx, q)
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("range %v: %d ids, brute force %d", q, len(got), len(want))
		}
		n, _ := countStream(t, set, ctx, q)
		if n != len(want) {
			t.Fatalf("count %v = %d, want %d", q, n, len(want))
		}
	}
	for _, p := range []geom.Vec3{geom.V(5, 5, 5), geom.V(50, 50, 50), geom.V(120, -10, 60)} {
		checkSetNN(t, set, p)
	}
}
