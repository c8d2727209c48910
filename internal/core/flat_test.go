package core

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"flat/internal/geom"
	"flat/internal/neuro"
	"flat/internal/storage"
	"flat/internal/str"
)

func worldBox() geom.MBR { return geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100)) }

func randomElements(r *rand.Rand, n int, world geom.MBR) []geom.Element {
	els := make([]geom.Element, n)
	size := world.Size()
	for i := range els {
		c := geom.V(
			world.Min.X+r.Float64()*size.X,
			world.Min.Y+r.Float64()*size.Y,
			world.Min.Z+r.Float64()*size.Z,
		)
		h := geom.V(r.Float64(), r.Float64(), r.Float64())
		els[i] = geom.Element{ID: uint64(i), Box: geom.Box(c.Sub(h), c.Add(h))}
	}
	return els
}

func clusteredElements(r *rand.Rand, perCluster int, centers []geom.Vec3, spread float64) []geom.Element {
	var els []geom.Element
	id := uint64(0)
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			p := c.Add(geom.V(r.NormFloat64()*spread, r.NormFloat64()*spread, r.NormFloat64()*spread))
			els = append(els, geom.Element{ID: id, Box: geom.CubeAt(p, 0.5)})
			id++
		}
	}
	return els
}

func buildIndex(t *testing.T, els []geom.Element, opts Options) (*Index, *storage.ConcurrentPool) {
	t.Helper()
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	cp := make([]geom.Element, len(els))
	copy(cp, els)
	ix, err := Build(pool, cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, pool
}

func bruteForce(els []geom.Element, q geom.MBR) []uint64 {
	var ids []uint64
	for _, e := range els {
		if e.Box.Intersects(q) {
			ids = append(ids, e.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortedIDs(els []geom.Element) []uint64 {
	ids := make([]uint64, len(els))
	for i, e := range els {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	for _, n := range []int{50, 500, 5000} {
		els := randomElements(r, n, worldBox())
		ix, _ := buildIndex(t, els, Options{World: worldBox()})
		if ix.Len() != n {
			t.Fatalf("Len = %d", ix.Len())
		}
		for i := 0; i < 60; i++ {
			c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
			q := geom.CubeAt(c, 1+r.Float64()*25)
			got, st, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(els, q)
			if !equalIDs(sortedIDs(got), want) {
				t.Fatalf("n=%d query %v: got %d, want %d elements", n, q, len(got), len(want))
			}
			if st.Results != len(got) {
				t.Fatalf("stats.Results = %d, want %d", st.Results, len(got))
			}
		}
	}
}

func TestRangeQueryOnClusteredData(t *testing.T) {
	// Concave data with big holes: the crawl must cross empty regions via
	// the space-tiling partition cells (the paper's Figure 8 situation).
	r := rand.New(rand.NewSource(109))
	els := clusteredElements(r, 800,
		[]geom.Vec3{geom.V(15, 15, 15), geom.V(85, 85, 85), geom.V(15, 85, 50)}, 6)
	ix, _ := buildIndex(t, els, Options{World: worldBox()})

	queries := []geom.MBR{
		// Spans two clusters and the empty diagonal between them.
		geom.Box(geom.V(5, 5, 5), geom.V(95, 95, 95)),
		// Entirely inside the empty center.
		geom.CubeAt(geom.V(50, 20, 20), 4),
		// Clips one cluster's edge.
		geom.CubeAt(geom.V(15, 15, 15), 10),
	}
	for _, q := range queries {
		got, _, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(els, q)
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
		}
	}
}

func TestEmptyQueryRegion(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	els := randomElements(r, 1000, worldBox())
	ix, pool := buildIndex(t, els, Options{World: worldBox()})
	got, st, err := ix.RangeQuery(geom.CubeAt(geom.V(500, 500, 500), 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || st.Results != 0 {
		t.Fatalf("expected empty result, got %d", len(got))
	}
	// An out-of-world query should not read object pages at all: the seed
	// descent prunes at the root.
	if st.Reads.Reads[storage.CatObject] != 0 {
		t.Errorf("empty query read %d object pages", st.Reads.Reads[storage.CatObject])
	}

	// An in-world gap between elements: the seed walk probes the object
	// page of every record whose page MBR covers the gap, finds no hit
	// and gives up. It pops each metadata page once, so it reads each
	// once, however many probes miss.
	var q geom.MBR
	for q = geom.CubeAt(geom.V(50, 50, 50), 1e-6); len(bruteForce(els, q)) != 0; {
		q = geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), 1e-6)
	}
	spy := &countingPool{Pool: pool, calls: make(map[storage.PageID]int)}
	n, st, err := ix.WithPool(spy).CountQuery(q)
	if err != nil || n != 0 {
		t.Fatalf("gap query = (%d, %v), want an empty result", n, err)
	}
	metaPages, probes := 0, 0
	for id, calls := range spy.calls {
		switch pool.Pager().CategoryOf(id) {
		case storage.CatObject:
			probes += calls
		case storage.CatMetadata:
			metaPages++
			if calls != 1 {
				t.Errorf("seed walk read metadata page %d %d times", id, calls)
			}
		}
	}
	if metaPages == 0 || probes == 0 {
		t.Fatalf("gap query popped %d metadata pages and probed %d object pages; the fixture must miss at least one probe", metaPages, probes)
	}
}

// countingPool counts ReadInto calls per page on their way to the pool
// it wraps.
type countingPool struct {
	storage.Pool
	calls map[storage.PageID]int
}

func (p *countingPool) ReadInto(id storage.PageID, local *storage.Stats) ([]byte, error) {
	p.calls[id]++
	return p.Pool.ReadInto(id, local)
}

func TestQueryCoveringEverything(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	els := randomElements(r, 2000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	got, st, err := ix.RangeQuery(worldBox().Expand(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2000 {
		t.Fatalf("full query returned %d of 2000", len(got))
	}
	if st.PagesVisited != ix.NumPartitions() {
		t.Errorf("full query visited %d pages of %d partitions", st.PagesVisited, ix.NumPartitions())
	}
}

func TestCountQueryAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	els := randomElements(r, 1500, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	q := geom.CubeAt(geom.V(40, 60, 50), 22)
	n, _, err := ix.CountQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bruteForce(els, q)); n != want {
		t.Errorf("CountQuery = %d, want %d", n, want)
	}
}

// TestSeedStartInvariance verifies the paper's claim that the choice of
// the start page affects neither accuracy nor efficiency: crawling from
// every record whose page MBR meets the query, and from every record
// whose partition does, yields the same result set.
func TestSeedStartInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	els := randomElements(r, 2000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox(), PageCapacity: 16})
	q := geom.CubeAt(geom.V(50, 50, 50), 18)
	want := bruteForce(els, q)
	if len(want) == 0 {
		t.Fatal("test query must be non-empty")
	}

	// Two inputs: records whose page MBR meets the query (a seed could
	// return them), and the wider set whose partition MBR does.
	var pageStarts, partitionStarts []RecordRef
	err := ix.Records(func(r Record) error {
		if r.PageMBR.Intersects(q) {
			pageStarts = append(pageStarts, r.Ref)
		}
		if r.PartitionMBR.Intersects(q) {
			partitionStarts = append(partitionStarts, r.Ref)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pageStarts) < 2 || len(partitionStarts) <= len(pageStarts) {
		t.Fatalf("want multiple page-MBR starts and more partition starts, got %d and %d", len(pageStarts), len(partitionStarts))
	}
	for _, s := range append(pageStarts, partitionStarts...) {
		got, err := ix.CrawlFrom(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("crawl from %v: got %d, want %d elements", s, len(got), len(want))
		}
	}
}

// TestIndexInvariants checks the structural properties of Section V on a
// built index: partition MBR contains page MBR, neighbor links are
// symmetric, every neighbor ref resolves, and object pages are unique —
// plus what the stored rounding must keep: every neighbor's stored box
// contains that neighbor's decoded partition MBR, decoded page ⊆ decoded
// partition ⊆ world, every decoded box contains the box Build derived
// (the partitioning is rerun here: object page i holds partition i), and
// each seed key contains the decoded page MBRs of its records.
func TestIndexInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	els := randomElements(r, 4000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	cp := append([]geom.Element(nil), els...)
	parts := str.PartitionElements(cp, storage.ObjectPageCapacityV1, ix.World())
	if len(parts) != ix.NumPartitions() {
		t.Fatalf("rerun partitioning made %d partitions, the index %d", len(parts), ix.NumPartitions())
	}

	type recInfo struct {
		partMBR geom.MBR
		nb      map[RecordRef]geom.MBR // neighbor -> its stored box
	}
	recs := map[RecordRef]*recInfo{}
	objPages := map[storage.PageID]bool{}
	err := ix.Records(func(rec Record) error {
		ref := rec.Ref
		if !rec.PartitionMBR.Contains(rec.PageMBR) || !ix.World().Contains(rec.PartitionMBR) {
			t.Fatalf("record %v: page %v ⊆ partition %v ⊆ world %v does not hold", ref, rec.PageMBR, rec.PartitionMBR, ix.World())
		}
		if !rec.SeedKey.Contains(rec.PageMBR) {
			t.Fatalf("record %v: seed key %v does not contain page MBR %v", ref, rec.SeedKey, rec.PageMBR)
		}
		if objPages[rec.ObjectPage] {
			t.Fatalf("object page %d referenced twice", rec.ObjectPage)
		}
		objPages[rec.ObjectPage] = true
		p := parts[rec.ObjectPage-ix.objStart]
		if !rec.PageMBR.Contains(p.PageMBR) || !rec.PartitionMBR.Contains(p.PartitionMBR) {
			t.Fatalf("record %v: decoded page %v / partition %v do not contain the built %v / %v",
				ref, rec.PageMBR, rec.PartitionMBR, p.PageMBR, p.PartitionMBR)
		}
		if len(rec.NeighborBoxes) != len(rec.Neighbors) {
			t.Fatalf("record %v: %d boxes for %d neighbors", ref, len(rec.NeighborBoxes), len(rec.Neighbors))
		}
		info := &recInfo{partMBR: rec.PartitionMBR, nb: map[RecordRef]geom.MBR{}}
		for j, n := range rec.Neighbors {
			if n == ref {
				t.Fatalf("record %v lists itself as neighbor", ref)
			}
			if _, dup := info.nb[n]; dup {
				t.Fatalf("record %v lists neighbor %v twice", ref, n)
			}
			info.nb[n] = rec.NeighborBoxes[j]
		}
		recs[ref] = info
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != ix.NumPartitions() {
		t.Fatalf("enumerated %d records, want %d", len(recs), ix.NumPartitions())
	}
	// Symmetry + intersection consistency + box containment.
	for ref, info := range recs {
		for n, box := range info.nb {
			other, ok := recs[n]
			if !ok {
				t.Fatalf("record %v has dangling neighbor %v", ref, n)
			}
			if _, back := other.nb[ref]; !back {
				t.Fatalf("neighbor link %v -> %v not symmetric", ref, n)
			}
			if !info.partMBR.Intersects(other.partMBR) {
				t.Fatalf("neighbors %v and %v do not intersect", ref, n)
			}
			if !box.Contains(other.partMBR) {
				t.Fatalf("record %v: stored box %v of neighbor %v does not contain its partition %v", ref, box, n, other.partMBR)
			}
		}
	}
}

func TestQueryStatsBreakdownConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(149))
	els := randomElements(r, 3000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	_, st, err := ix.RangeQuery(geom.CubeAt(geom.V(30, 30, 30), 15))
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalReads != st.Reads.TotalReads() || st.Reads.Reads[storage.CatUnknown] != 0 {
		t.Errorf("reads breakdown inconsistent: %+v", st)
	}
	if st.Reads.Reads[storage.CatObject] == 0 || st.Reads.Reads[storage.CatMetadata] == 0 {
		t.Errorf("expected object and metadata reads, got %+v", st)
	}
	if st.PagesVisited <= 0 || st.RecordsVisited < st.PagesVisited {
		t.Errorf("visit counters implausible: %+v", st)
	}
}

func TestBuildErrors(t *testing.T) {
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	if _, err := Build(pool, nil, Options{}); err != ErrEmpty {
		t.Errorf("empty build: %v", err)
	}
	els := randomElements(rand.New(rand.NewSource(1)), 10, worldBox())
	if _, err := Build(pool, els, Options{PageCapacity: 1000}); err == nil {
		t.Error("oversized capacity accepted")
	}
	if _, err := Build(pool, els, Options{PageCapacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestSmallIndexSingleMetadataPage(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	els := randomElements(r, 30, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	if ix.SeedHeight() != 1 {
		t.Errorf("SeedHeight = %d, want 1 (root is metadata page)", ix.SeedHeight())
	}
	obj, meta, seed := ix.PageCounts()
	if obj != 1 || meta != 1 || seed != 0 {
		t.Errorf("PageCounts = %d,%d,%d", obj, meta, seed)
	}
	got, _, err := ix.RangeQuery(worldBox())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Errorf("full query returned %d", len(got))
	}
}

func TestAnalysisAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(157))
	els := randomElements(r, 4000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})

	h, err := ix.NeighborHistogram()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for n, c := range h {
		if n < 0 || c <= 0 {
			t.Fatalf("bad histogram entry %d:%d", n, c)
		}
		total += c
	}
	if total != ix.NumPartitions() {
		t.Errorf("histogram covers %d partitions, want %d", total, ix.NumPartitions())
	}
	bs := ix.BuildStats()
	if avg, err := ix.AvgNeighbors(); err != nil || avg != float64(bs.NeighborLinks)/float64(bs.Partitions) {
		t.Errorf("AvgNeighbors = %v, %v; the build stored %d links over %d partitions", avg, err, bs.NeighborLinks, bs.Partitions)
	}
	if bs.Partitions != ix.NumPartitions() || bs.NeighborLinks <= 0 || bs.TotalTime <= 0 {
		t.Errorf("BuildStats implausible: %+v", bs)
	}
	if ix.SizeBytes() == 0 || ix.SeedHeight() < 1 {
		t.Error("size/height accessors")
	}
	if !ix.World().Contains(ix.Bounds()) {
		t.Error("world should contain bounds")
	}
}

// TestSeedPhaseCheap verifies the complexity claim of Section IV: the
// seed phase is in the order of the seed-tree height even on a large
// index, i.e. seeding reads far fewer pages than crawling on a selective
// query.
func TestSeedPhaseCheap(t *testing.T) {
	r := rand.New(rand.NewSource(163))
	els := randomElements(r, 30000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})

	q := geom.CubeAt(geom.V(50, 50, 50), 30)
	_, st, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if seed := st.Reads.Reads[storage.CatSeedInternal]; seed > uint64(ix.SeedHeight()) {
		t.Errorf("seed phase read %d internal pages, height is %d", seed, ix.SeedHeight())
	}
	if obj := st.Reads.Reads[storage.CatObject]; obj < 20 {
		t.Errorf("expected a substantial crawl, got %d object reads", obj)
	}
}

// TestVisitedOncePerPage: Algorithm 2 keeps a visited set, so no object
// page is read twice within one query even though many records point at
// each other. With an unbounded pool, object reads == PagesVisited.
func TestVisitedOncePerPage(t *testing.T) {
	r := rand.New(rand.NewSource(167))
	els := randomElements(r, 8000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	_, st, err := ix.RangeQuery(geom.CubeAt(geom.V(60, 40, 50), 25))
	if err != nil {
		t.Fatal(err)
	}
	if obj := st.Reads.Reads[storage.CatObject]; obj != uint64(st.PagesVisited) {
		t.Errorf("object reads %d != pages visited %d", obj, st.PagesVisited)
	}
}

func TestDeterministicBuild(t *testing.T) {
	mk := func() *Index {
		r := rand.New(rand.NewSource(173))
		els := randomElements(r, 2000, worldBox())
		ix, _ := buildIndex(t, els, Options{World: worldBox()})
		return ix
	}
	a, b := mk(), mk()
	if a.NumPartitions() != b.NumPartitions() {
		t.Fatal("partition counts differ")
	}
	if a.BuildStats().NeighborLinks != b.BuildStats().NeighborLinks {
		t.Fatal("neighbor links differ")
	}
	qa, _, _ := a.RangeQuery(geom.CubeAt(geom.V(50, 50, 50), 10))
	qb, _, _ := b.RangeQuery(geom.CubeAt(geom.V(50, 50, 50), 10))
	if !equalIDs(sortedIDs(qa), sortedIDs(qb)) {
		t.Fatal("query results differ between identical builds")
	}
}

// TestColdReadsInvariantAcrossWorkers pins the invariant behind every
// concurrency measurement (BenchmarkThroughputWorkers, benchmark/): N
// goroutines, each replaying its stride of a query set on the one
// index, read in total exactly the pages, and find exactly the results,
// of one goroutine replaying the whole set. Parallelism overlaps
// queries; it never changes one.
func TestColdReadsInvariantAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(179))
	els := randomElements(r, 8000, worldBox())
	ix, _ := buildIndex(t, els, Options{World: worldBox()})
	queries := make([]geom.MBR, 48)
	for i := range queries {
		queries[i] = geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), 4+r.Float64()*12)
	}

	replay := func(workers int) (reads, results uint64) {
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var n, read uint64
				for i := w; i < len(queries); i += workers {
					cnt, st, err := ix.CountQuery(queries[i])
					if err != nil {
						t.Error(err)
						return
					}
					n += uint64(cnt)
					read += st.TotalReads
				}
				mu.Lock()
				reads += read
				results += n
				mu.Unlock()
			}()
		}
		wg.Wait()
		return reads, results
	}

	// The single-threaded reference.
	var wantReads, wantResults uint64
	for _, q := range queries {
		cnt, st, err := ix.CountQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		wantResults += uint64(cnt)
		wantReads += st.TotalReads
	}
	if wantReads == 0 || wantResults == 0 {
		t.Fatalf("degenerate workload: %d reads, %d results", wantReads, wantResults)
	}
	for _, workers := range []int{1, 4} {
		if reads, results := replay(workers); reads != wantReads || results != wantResults {
			t.Errorf("%d workers: %d reads, %d results; single-threaded %d, %d",
				workers, reads, results, wantReads, wantResults)
		}
	}
}

// TestQueryAllocatesNothing pins the allocation count of a warm range
// query at K=1 with a no-op emit, on an SN-sized box (~15 results) and an
// LSS-sized box (~2.7k results), over v1 and v2 object pages: a page
// read hands out the pager's own bytes, the scratch comes from its pool
// with grown buffers, records are decoded in place and object pages
// filtered in place, so the query allocates nothing.
func TestQueryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the query scratch at random")
	}
	r := rand.New(rand.NewSource(181))
	els := randomElements(r, 20000, worldBox())
	for _, format := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
		ix, _ := buildIndex(t, els, Options{World: worldBox(), PageFormat: format})
		for _, c := range []struct {
			name string
			q    geom.MBR
		}{
			{"SN", geom.CubeAt(geom.V(40, 55, 35), 8)},
			{"LSS", geom.CubeAt(geom.V(50, 45, 55), 50)},
		} {
			emit := func(geom.Element) bool { return true }
			st, err := ix.Query(context.Background(), c.q, emit) // warm the pool and the scratch
			if err != nil || st.Results == 0 {
				t.Fatalf("%s %s: %d results, %v", format, c.name, st.Results, err)
			}
			if n := testing.AllocsPerRun(50, func() { ix.Query(context.Background(), c.q, emit) }); n != 0 {
				t.Errorf("%s %s query (%d results): %v allocations, want 0", format, c.name, st.Results, n)
			}
		}
	}
}

// TestBoxedCrawlMatchesBare pins why the crawl may skip a neighbor whose
// box misses the query: over the same pages, the boxed crawl emits
// exactly the elements of the bare one (the paper's), in the same order,
// reading the same object pages, while dequeuing no more records and
// reading no more metadata pages.
func TestBoxedCrawlMatchesBare(t *testing.T) {
	r := rand.New(rand.NewSource(191))
	els := randomElements(r, 12000, worldBox())
	boxed, _ := buildIndex(t, els, Options{World: worldBox(), PageCapacity: 16})
	bare, _ := buildIndex(t, els, Options{World: worldBox(), PageCapacity: 16, BarePointers: true})
	skipped := 0
	for i := 0; i < 60; i++ {
		q := geom.CubeAt(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100), 1+r.Float64()*r.Float64()*60)
		got, gotSt, err := boxed.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := bare.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: boxed crawl emitted %d elements, bare %d", q, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %v: emission %d is %v boxed, %v bare", q, j, got[j], want[j])
			}
		}
		if gotSt.Reads.Reads[storage.CatObject] != wantSt.Reads.Reads[storage.CatObject] || gotSt.PagesVisited != wantSt.PagesVisited ||
			gotSt.RecordsVisited > wantSt.RecordsVisited || gotSt.Reads.Reads[storage.CatMetadata] > wantSt.Reads.Reads[storage.CatMetadata] {
			t.Fatalf("query %v: boxed %+v, bare %+v", q, gotSt, wantSt)
		}
		skipped += wantSt.RecordsVisited - gotSt.RecordsVisited
	}
	if skipped == 0 {
		t.Fatal("the boxes skipped no record on any query")
	}
}

// TestFramedCrawlMatchesBare is TestBoxedCrawlMatchesBare on the pages
// the served configuration writes — neuron segments, v2 object pages,
// full metadata pages, so every page frame spans many partitions and a
// box has b bits against it: from the same pages, the framed boxes
// change no emission and no object read, only skip records. Every
// stored box contains its neighbor's decoded partition MBR, and every
// decoded page MBR lies inside its partition MBR.
func TestFramedCrawlMatchesBare(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(12, 12, 12))
	els := neuro.Generate(neuro.Config{Seed: 5, Volume: world, TargetElements: 30000}).Elements
	opts := Options{World: world, PageFormat: storage.PageFormatV2}
	framed, _ := buildIndex(t, els, opts)
	opts.BarePointers = true
	bare, _ := buildIndex(t, els, opts)
	if _, meta, _ := framed.PageCounts(); meta < 4 {
		t.Fatalf("%d metadata pages: too few for frames to differ", meta)
	}
	parts := map[RecordRef]geom.MBR{}
	err := framed.Records(func(r Record) error {
		parts[r.Ref] = r.PartitionMBR
		if !r.PartitionMBR.Contains(r.PageMBR) {
			t.Fatalf("record %v: page MBR %v outside partition %v", r.Ref, r.PageMBR, r.PartitionMBR)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = framed.Records(func(r Record) error {
		for i, n := range r.Neighbors {
			if !r.NeighborBoxes[i].Contains(parts[n]) {
				t.Fatalf("record %v: box %v of neighbor %v misses its partition %v", r.Ref, r.NeighborBoxes[i], n, parts[n])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(193))
	skipped := 0
	for i := 0; i < 80; i++ {
		side := 0.2 + r.Float64()*r.Float64()*4
		q := geom.CubeAt(geom.V(r.Float64()*12, r.Float64()*12, r.Float64()*12), side)
		got, gotSt, err := framed.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := bare.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %v: framed crawl emitted %d elements, bare %d, or in another order", q, len(got), len(want))
		}
		if gotSt.Reads.Reads[storage.CatObject] != wantSt.Reads.Reads[storage.CatObject] || gotSt.PagesVisited != wantSt.PagesVisited ||
			gotSt.RecordsVisited > wantSt.RecordsVisited || gotSt.Reads.Reads[storage.CatMetadata] > wantSt.Reads.Reads[storage.CatMetadata] {
			t.Fatalf("query %v: framed %+v, bare %+v", q, gotSt, wantSt)
		}
		skipped += wantSt.RecordsVisited - gotSt.RecordsVisited
	}
	if skipped == 0 {
		t.Fatal("the boxes skipped no record on any query")
	}
}
