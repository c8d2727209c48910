package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

func randomElements(r *rand.Rand, n int) []geom.Element {
	els := make([]geom.Element, n)
	for i := range els {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		els[i] = geom.Element{ID: uint64(i), Box: geom.CubeAt(c, 0.5+r.Float64())}
	}
	return els
}

func brute(els []geom.Element, q geom.MBR) []uint64 {
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

// shardFile returns the generation-0 page-file path of shard s under
// dir (the name fresh builds use).
func shardFile(dir string, s int) string {
	return filepath.Join(dir, shardFileName(s, 0))
}

func testQueries(r *rand.Rand, n int) []geom.MBR {
	qs := make([]geom.MBR, n)
	for i := range qs {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		qs[i] = geom.CubeAt(c, 2+r.Float64()*20)
	}
	return qs
}

func TestSplitHilbert(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	els := randomElements(r, 1000)
	world := geom.ElementsMBR(els)
	orig := append([]geom.Element(nil), els...)

	for _, k := range []int{1, 2, 3, 8, 1000, 1500} {
		cp := append([]geom.Element(nil), orig...)
		groups := splitHilbert(cp, k, world)
		want := k
		if want > len(cp) {
			want = len(cp)
		}
		if len(groups) != want {
			t.Errorf("k=%d: %d groups, want %d", k, len(groups), want)
		}
		total := 0
		var all []uint64
		for _, g := range groups {
			if len(g) == 0 {
				t.Fatalf("k=%d: empty group", k)
			}
			total += len(g)
			all = append(all, sortedIDs(g)...)
		}
		if total != len(orig) {
			t.Errorf("k=%d: groups hold %d elements, want %d", k, total, len(orig))
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		if !equalIDs(all, sortedIDs(orig)) {
			t.Errorf("k=%d: groups lost or duplicated elements", k)
		}
		// Near-equal sizes: max-min <= ceil(n/k) spread by construction.
		if k > 1 && len(groups) > 1 {
			size := (len(orig) + k - 1) / k
			for gi, g := range groups {
				if len(g) > size {
					t.Errorf("k=%d: group %d holds %d > %d", k, gi, len(g), size)
				}
			}
		}
	}

	// k=1 must not reorder: a single shard has to see exactly the input
	// order an unsharded build would.
	cp := append([]geom.Element(nil), orig...)
	splitHilbert(cp, 1, world)
	for i := range cp {
		if cp[i].ID != orig[i].ID {
			t.Fatal("k=1 reordered the input")
		}
	}
}

// TestSingleShardParity pins the acceptance invariant: a 1-shard set is
// byte-identical to the unsharded index — same pages, same ids, same
// results, same per-query read counts.
func TestSingleShardParity(t *testing.T) {
	// The non-zero SeedFanout case keeps the knob honest: a dropped
	// fanout would reshape the reference seed tree but not the shard's,
	// and the byte comparison below would catch it.
	for _, fanout := range []int{0, 8} {
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			testSingleShardParity(t, fanout)
		})
	}
}

func testSingleShardParity(t *testing.T, fanout int) {
	r := rand.New(rand.NewSource(12))
	els := randomElements(r, 4000)

	// Unsharded reference.
	refEls := append([]geom.Element(nil), els...)
	refPager := storage.NewMemPager()
	refPool := storage.NewConcurrentPool(refPager, 0)
	ref, err := core.Build(refPool, refEls, core.Options{PageCapacity: 16, SeedFanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	refPool.DropFrames()

	shEls := append([]geom.Element(nil), els...)
	set, err := Build(shEls, Config{Shards: 1, PageCapacity: 16, SeedFanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Page-level identity.
	sub := set.multi
	if sub.NumPages() != refPager.NumPages() {
		t.Fatalf("page counts differ: sharded %d, reference %d", sub.NumPages(), refPager.NumPages())
	}
	a := make([]byte, storage.PageSize)
	b := make([]byte, storage.PageSize)
	for id := uint64(0); id < refPager.NumPages(); id++ {
		if err := refPager.ReadPage(storage.PageID(id), a); err != nil {
			t.Fatal(err)
		}
		if err := sub.ReadPage(storage.PageID(id), b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs between sharded(K=1) and unsharded build", id)
		}
	}

	// Query-level identity: results in the same order, same read counts,
	// every query cold.
	queries := testQueries(r, 30)
	sameAnswers := func(shape string, set *Set) {
		t.Helper()
		for i, q := range queries {
			set.DropCache()
			refPool.DropFrames()
			want, wantStats, err := ref.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats := collectStream(t, set, context.Background(), q)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, want %d", shape, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s query %d: result %d = %+v, want %+v (order must match)", shape, i, j, got[j], want[j])
				}
			}
			if gotStats != wantStats {
				t.Errorf("%s query %d: stats %+v, want %+v", shape, i, gotStats, wantStats)
			}
		}
	}
	sameAnswers("memory", set)

	// On disk: the shard-0000.flat a K=1 directory build writes is
	// byte-for-byte the file a bare core.Build + WriteSuper writes on a
	// FilePager.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.flat")
	refFile, err := storage.CreateFilePager(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refEls = append(refEls[:0], els...)
	refOnDisk, err := core.Build(storage.NewConcurrentPool(refFile, 0), refEls, core.Options{PageCapacity: 16, SeedFanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	if err := refOnDisk.WriteSuper(); err != nil {
		t.Fatal(err)
	}
	if err := refFile.Close(); err != nil {
		t.Fatal(err)
	}
	setDir := filepath.Join(dir, "set")
	shEls = append(shEls[:0], els...)
	diskSet, err := Build(shEls, Config{Dir: setDir, PageCapacity: 16, SeedFanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers("directory (built)", diskSet)
	if err := diskSet.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(shardFile(setDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("K=1 directory build's shard file (%d bytes) is not byte-identical to the core reference (%d bytes)", len(got), len(want))
	}

	// Reopened — through a descriptor and memory-mapped — it answers the
	// same, cold.
	for _, mmap := range []bool{false, true} {
		re, err := OpenSet(setDir, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("OpenSet(mmap=%v): %v", mmap, err)
		}
		if re.NumShards() != 1 || re.Len() != len(els) || re.World() != ref.World() || re.Bounds() != ref.Bounds() {
			t.Errorf("OpenSet(mmap=%v): %d shards, %d elements, world %v, bounds %v", mmap, re.NumShards(), re.Len(), re.World(), re.Bounds())
		}
		sameAnswers(fmt.Sprintf("directory (reopened, mmap=%v)", mmap), re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardedCorrectnessAcrossK(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	els := randomElements(r, 5000)
	orig := append([]geom.Element(nil), els...)
	queries := testQueries(r, 40)

	for _, k := range []int{2, 3, 4, 8} {
		cp := append([]geom.Element(nil), orig...)
		set, err := Build(cp, Config{Shards: k, PageCapacity: 16})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if set.NumShards() != k {
			t.Errorf("k=%d: NumShards = %d", k, set.NumShards())
		}
		if set.Len() != len(orig) {
			t.Errorf("k=%d: Len = %d", k, set.Len())
		}
		for i, q := range queries {
			got, st := collectStream(t, set, context.Background(), q)
			want := brute(orig, q)
			if !equalIDs(sortedIDs(got), want) {
				t.Fatalf("k=%d query %d: result mismatch (%d vs %d)", k, i, len(got), len(want))
			}
			if st.Results != len(got) {
				t.Errorf("k=%d query %d: stats.Results = %d, want %d", k, i, st.Results, len(got))
			}
			if sum := st.SeedReads + st.MetadataReads + st.ObjectReads; st.TotalReads != sum {
				t.Errorf("k=%d query %d: TotalReads %d != category sum %d", k, i, st.TotalReads, sum)
			}
			n, cst := countStream(t, set, context.Background(), q)
			if n != len(want) || cst.Results != n {
				t.Errorf("k=%d query %d: count = %d, want %d", k, i, n, len(want))
			}
		}
		set.Close()
	}
}

func TestShardedDiskRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	els := randomElements(r, 3000)
	orig := append([]geom.Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "sharded")
	queries := testQueries(r, 20)

	set, err := Build(els, Config{Shards: 4, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	type baseline struct {
		ids   []uint64
		reads uint64
	}
	base := make([]baseline, len(queries))
	for i, q := range queries {
		set.DropCache()
		got, st := collectStream(t, set, context.Background(), q)
		base[i] = baseline{ids: sortedIDs(got), reads: st.TotalReads}
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	// The directory must hold the manifest and one file per shard.
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if _, err := os.Stat(shardFile(dir, s)); err != nil {
			t.Fatal(err)
		}
	}

	re, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 4 || re.Len() != len(orig) {
		t.Fatalf("reopened: %d shards, %d elements", re.NumShards(), re.Len())
	}
	for i, q := range queries {
		re.DropCache()
		got, st := collectStream(t, re, context.Background(), q)
		if !equalIDs(sortedIDs(got), base[i].ids) {
			t.Fatalf("query %d: reopened results differ", i)
		}
		if st.TotalReads != base[i].reads {
			t.Errorf("query %d: reopened cold reads %d, want %d", i, st.TotalReads, base[i].reads)
		}
		if !equalIDs(sortedIDs(got), brute(orig, q)) {
			t.Fatalf("query %d: reopened results wrong vs brute force", i)
		}
	}

	if _, err := OpenSet(filepath.Join(dir, "missing"), OpenOptions{}); err == nil {
		t.Error("Open of a missing directory should fail")
	}

	// A truncated (empty) shard file must fail with a clear diagnostic,
	// not an id-underflow page error.
	if err := os.Truncate(shardFile(dir, 2), 0); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSet(dir, OpenOptions{})
	if err == nil {
		t.Fatal("Open with an empty shard file should fail")
	}
	if !strings.Contains(err.Error(), "empty page file") {
		t.Errorf("empty-file error not diagnostic: %v", err)
	}
}

// TestSharedCacheBudgetIsGlobal asserts that the BufferPages budget
// bounds the cache across all shards together, not per shard.
func TestSharedCacheBudgetIsGlobal(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	els := randomElements(r, 4000)
	const budget = 96
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16, BufferPages: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if got := set.Pool().Capacity(); got != budget {
		t.Fatalf("shared pool capacity = %d, want %d", got, budget)
	}
	// Query broadly to touch many pages in every shard.
	for _, q := range testQueries(r, 40) {
		countStream(t, set, context.Background(), q)
	}
	// The lock-striped pool enforces its budget per stripe (min one
	// frame each), so allow the documented slack above the budget.
	if n := set.Pool().Len(); n > budget+64 {
		t.Errorf("shared cache holds %d frames, budget %d (+64 stripe slack)", n, budget)
	}
}

func TestPruneDirectory(t *testing.T) {
	// Two well-separated clusters: queries inside one cluster must prune
	// the other cluster's shards.
	r := rand.New(rand.NewSource(16))
	els := make([]geom.Element, 0, 2000)
	for i := 0; i < 1000; i++ {
		c := geom.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		els = append(els, geom.Element{ID: uint64(i), Box: geom.CubeAt(c, 0.5)})
	}
	for i := 1000; i < 2000; i++ {
		c := geom.V(90+r.Float64()*10, 90+r.Float64()*10, 90+r.Float64()*10)
		els = append(els, geom.Element{ID: uint64(i), Box: geom.CubeAt(c, 0.5)})
	}
	orig := append([]geom.Element(nil), els...)
	set, err := Build(els, Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	q := geom.Box(geom.V(0, 0, 0), geom.V(12, 12, 12))
	sel := set.Prune(q)
	if len(sel) == 0 || len(sel) == set.NumShards() {
		t.Fatalf("pruning ineffective: %d of %d shards selected", len(sel), set.NumShards())
	}
	got, _ := collectStream(t, set, context.Background(), q)
	if !equalIDs(sortedIDs(got), brute(orig, q)) {
		t.Error("pruned query returned wrong results")
	}

	// A query in empty space touches nothing.
	far := geom.Box(geom.V(40, 40, 40), geom.V(45, 45, 45))
	n, st := countStream(t, set, context.Background(), far)
	if len(set.Prune(far)) != 0 || n != 0 || st.TotalReads != 0 {
		t.Errorf("empty-space query: %d shards, %d results, %d reads", len(set.Prune(far)), n, st.TotalReads)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{Shards: 2}); err == nil {
		t.Error("empty build should fail")
	}
	r := rand.New(rand.NewSource(17))
	// More shards than elements: degrade to one group per element.
	els := randomElements(r, 3)
	set, err := Build(els, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.NumShards() != 3 || set.Len() != 3 {
		t.Errorf("tiny build: %d shards, %d elements", set.NumShards(), set.Len())
	}
	got, _ := collectStream(t, set, context.Background(), geom.Box(geom.V(-1000, -1000, -1000), geom.V(1000, 1000, 1000)))
	if len(got) != 3 {
		t.Errorf("full query returned %d of 3", len(got))
	}
}

// TestBuildRejectsInvalidBoxes pins StageInsert's box rule on Build: one
// element whose box has a NaN or infinite coordinate, or is inverted,
// fails the build with an error naming the element's ID, before any file
// is written — at either page format and shard count.
func TestBuildRejectsInvalidBoxes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]geom.MBR{
		"NaN min":  {Min: geom.V(1, nan, 1), Max: geom.V(2, 2, 2)},
		"NaN max":  {Min: geom.V(1, 1, 1), Max: geom.V(2, 2, nan)},
		"+Inf max": {Min: geom.V(1, 1, 1), Max: geom.V(inf, 2, 2)},
		"-Inf min": {Min: geom.V(1, -inf, 1), Max: geom.V(2, 2, 2)},
		"inverted": {Min: geom.V(1, 3, 1), Max: geom.V(2, 2, 2)},
	}
	for _, k := range []int{1, 4} {
		for _, pf := range []storage.PageFormat{storage.PageFormatV1, storage.PageFormatV2} {
			for name, box := range bad {
				els := randomElements(rand.New(rand.NewSource(23)), 1000)
				els[617].Box = box
				id := els[617].ID
				dir := t.TempDir()
				_, err := Build(els, Config{Shards: k, PageFormat: pf, Dir: dir})
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("element %d:", id)) {
					t.Errorf("K=%d %s, %s: Build error %v, want one naming element %d", k, pf, name, err, id)
				}
				if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
					t.Errorf("K=%d %s, %s: the failed build left %d entries in Dir (%v)", k, pf, name, len(left), err)
				}
			}
		}
	}
}

// TestRunBatchFirstErrorDeterministic pins the error contract of the
// bulkload fan-out (bulkloadShards): whichever worker finishes first,
// every job runs and the error of the lowest-indexed failing shard is
// the one reported, with nothing built left behind.
func TestRunBatchFirstErrorDeterministic(t *testing.T) {
	errAt := map[int]error{
		3: fmt.Errorf("item 3 failed"),
		7: fmt.Errorf("item 7 failed"),
	}
	r := rand.New(rand.NewSource(47))
	els := randomElements(r, 20)
	for trial := 0; trial < 200; trial++ {
		ran := make([]bool, 16)
		jobs := make([]bulkJob, len(ran))
		for s := range jobs {
			jobs[s] = func() ([]geom.Element, core.Options, error) {
				ran[s] = true
				if err := errAt[s]; err != nil {
					return nil, core.Options{}, err
				}
				return append([]geom.Element(nil), els...), core.Options{PageCapacity: 16}, nil
			}
		}
		built, pagers, err := bulkloadShards("", 1, jobs)
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("trial %d: bulkloadShards = %v, want deterministic first error of item 3", trial, err)
		}
		if built != nil || pagers != nil {
			t.Fatalf("trial %d: failed bulkload returned indexes or pagers", trial)
		}
		for s, ok := range ran {
			if !ok {
				t.Fatalf("trial %d: job %d never ran", trial, s)
			}
		}
	}
}
