package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/hilbert"
	"flat/internal/storage"
	"flat/internal/str"
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

// hilbertSortSplit is the split splitHilbert replaced: the whole input
// stably sorted along the curve, then cut into ceil(n/k)-element runs.
func hilbertSortSplit(els []geom.Element, k int, world geom.MBR) [][]geom.Element {
	hilbert.SortElements(els, world)
	return str.Chunks(els, (len(els)+k-1)/k)
}

// strView is a group as core.Build's STR pass sees it: stably sorted by
// center. Two groups with the same members and the same relative order
// among equal centers give the same view.
func strView(g []geom.Element) []uint64 {
	g = slices.Clone(g)
	sort.SliceStable(g, func(i, j int) bool {
		a, b := g[i].Box.Center(), g[j].Box.Center()
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	ids := make([]uint64, len(g))
	for i, e := range g {
		ids[i] = e.ID
	}
	return ids
}

// TestSplitMatchesHilbertSort holds the selecting split to the sorting
// one it replaced, on the inputs that tell them apart: random boxes,
// a lattice where every third center repeats (as in
// stableBuildElements), and a world so large that most elements share a
// Hilbert key with distinct centers. Ids are shuffled against input
// positions, so a tie broken by id instead of by position shows. Every
// group must hold the same members with equal centers in the same
// relative order — what core.Build's STR pass sees — and a group no
// larger than a page, which STR writes as it comes, the same order.
func TestSplitMatchesHilbertSort(t *testing.T) {
	shapes := map[string]func(r *rand.Rand, i int) geom.Vec3{
		"random": func(r *rand.Rand, _ int) geom.Vec3 {
			return geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		},
		"lattice": func(r *rand.Rand, i int) geom.Vec3 {
			if i%3 == 0 {
				return geom.V(float64(r.Intn(6))*20, float64(r.Intn(6))*20, float64(r.Intn(6))*20)
			}
			return geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		},
		"equal keys": func(r *rand.Rand, _ int) geom.Vec3 {
			return geom.V(r.Float64(), r.Float64(), r.Float64())
		},
	}
	for name, center := range shapes {
		for _, k := range []int{2, 3, 4, 7, 16} {
			for _, n := range []int{k - 1, k, k + 1, 9, 1000, 4321, 12000} {
				r := rand.New(rand.NewSource(int64(n*31 + k)))
				els := make([]geom.Element, n)
				for i, id := range r.Perm(n) {
					els[i] = geom.Element{ID: uint64(id), Box: geom.CubeAt(center(r, i), 0.5)}
				}
				world := geom.ElementsMBR(els)
				if name == "equal keys" {
					world = world.Union(geom.PointBox(geom.V(1e6, 1e6, 1e6)))
				}
				want := hilbertSortSplit(slices.Clone(els), k, world)
				got := splitHilbert(slices.Clone(els), k, world)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d n=%d: %d groups, want %d", name, k, n, len(got), len(want))
				}
				for g := range want {
					if len(got[g]) <= maxPageElements {
						if !slices.Equal(got[g], want[g]) {
							t.Fatalf("%s k=%d n=%d: group %d (%d elements) is not in the curve's order", name, k, n, g, len(got[g]))
						}
					}
					if !slices.Equal(strView(got[g]), strView(want[g])) {
						t.Fatalf("%s k=%d n=%d: group %d differs from the sorted split's as STR sees it", name, k, n, g)
					}
				}
			}
		}
	}
}

// TestShardCountRule pins how many shards a build makes: ceil(n/k)-
// element runs, so ceil(n/ceil(n/k)) shards — at k = 4, three for 5, 6
// and 9 elements.
func TestShardCountRule(t *testing.T) {
	for n, want := range map[int]int{5: 3, 6: 3, 7: 4, 9: 3, 10: 4} {
		set, err := Build(randomElements(rand.New(rand.NewSource(int64(n))), n), Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := set.NumShards(); got != want {
			t.Errorf("n=%d k=4: %d shards, want %d", n, got, want)
		}
		set.Close()
	}
}

// TestSingleShardParity pins the acceptance invariant: a 1-shard set is
// byte-identical to the unsharded index — same pages, same ids, same
// results, same per-query read counts.
func TestSingleShardParity(t *testing.T) {
	// The non-zero SeedFanout cases keep the knob honest: a dropped
	// fanout would reshape the reference seed tree but not the shard's,
	// and the byte comparison below would catch it. The v2 case extends
	// the identity to the compressed object-page format.
	cases := []struct {
		name   string
		fanout int
		format storage.PageFormat
	}{
		{"fanout=0", 0, 0},
		{"fanout=8", 8, 0},
		{"fanout=8/v2", 8, storage.PageFormatV2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testSingleShardParity(t, tc.fanout, tc.format)
		})
	}
}

func testSingleShardParity(t *testing.T, fanout int, format storage.PageFormat) {
	r := rand.New(rand.NewSource(12))
	els := randomElements(r, 8000) // enough metadata pages for fanout 8 to add a seed level

	// Unsharded reference.
	refEls := append([]geom.Element(nil), els...)
	refPager := storage.NewMemPager()
	refPool := storage.NewConcurrentPool(refPager, 0)
	opts := core.Options{PageCapacity: 16, SeedFanout: fanout, PageFormat: format}
	ref, err := core.Build(refPool, refEls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fanout != 0 && ref.SeedHeight() < 3 {
		t.Fatalf("fanout %d did not deepen the seed tree (height %d)", fanout, ref.SeedHeight())
	}

	cfg := Config{Shards: 1, PageCapacity: 16, SeedFanout: fanout, PageFormat: format}
	shEls := append([]geom.Element(nil), els...)
	set, err := Build(shEls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Page-level identity.
	sub := set.now().pagers[0]
	if sub.NumPages() != refPager.NumPages() {
		t.Fatalf("page counts differ: sharded %d, reference %d", sub.NumPages(), refPager.NumPages())
	}
	for id := uint64(0); id < refPager.NumPages(); id++ {
		a, err := refPager.ReadPage(storage.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		b, err := sub.ReadPage(storage.PageID(id))
		if err != nil {
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
	// byte-for-byte the file a bare core.Build + WriteSuper writes
	// from a MemPager.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.flat")
	refMem := storage.NewMemPager()
	refEls = append(refEls[:0], els...)
	refOnDisk, err := core.Build(storage.NewConcurrentPool(refMem, 0), refEls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := refOnDisk.WriteSuper(); err != nil {
		t.Fatal(err)
	}
	if err := refMem.WriteFile(refPath); err != nil {
		t.Fatal(err)
	}
	setDir := filepath.Join(dir, "set")
	shEls = append(shEls[:0], els...)
	cfg.Dir = setDir
	diskSet, err := Build(shEls, cfg)
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

	// Reopened, it answers the same, cold.
	re, err := OpenSet(setDir, OpenOptions{})
	if err != nil {
		t.Fatalf("OpenSet: %v", err)
	}
	if re.NumShards() != 1 || re.Len() != len(els) || re.World() != ref.World() || re.Bounds() != ref.Bounds() {
		t.Errorf("OpenSet: %d shards, %d elements, world %v, bounds %v", re.NumShards(), re.Len(), re.World(), re.Bounds())
	}
	sameAnswers("directory (reopened)", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryServedShardIsMapped pins the one read path for committed
// shard files: after Build into a directory, Rebuild, the open-time
// upgrade of an older metadata kind, and OpenSet (whatever its reserved
// Mmap says), every shard's pager is its file's read-only mapping, and
// the pool the shard's queries read through hands out that mapping's
// own bytes.
func TestEveryServedShardIsMapped(t *testing.T) {
	assertMapped := func(step string, set *Set) {
		t.Helper()
		g := set.now()
		for sh := range set.NumShards() {
			mp, ok := g.pagers[sh].(*storage.MmapPager)
			if !ok {
				t.Errorf("%s: shard %d is served through a %T, want a *storage.MmapPager", step, sh, g.pagers[sh])
				continue
			}
			want, err := mp.ReadPage(0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := set.Shard(sh).Pool().ReadInto(storage.ShardPageID(sh, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != &want[0] {
				t.Errorf("%s: shard %d's queries read its page 0 from outside its mapping", step, sh)
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(randomElements(rand.New(rand.NewSource(97)), 1200), Config{Shards: 3, PageCapacity: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertMapped("Build", set)
	stageCluster(t, set, 1_000_000, 20, geom.CubeAt(geom.V(5, 5, 5), 4))
	if rebuilt, err := set.Rebuild(); err != nil || len(rebuilt) == 0 {
		t.Fatalf("Rebuild = %v, %v; want a rebuilt shard", rebuilt, err)
	}
	assertMapped("Rebuild", set)
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		re, err := OpenSet(dir, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		assertMapped(fmt.Sprintf("OpenSet(Mmap: %v)", mmap), re)
		re.Close()
	}

	up, err := OpenSet(copyFixture(t, kind3Fixture), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if up.Generation(0) != 1 || up.Generation(1) != 1 {
		t.Fatalf("kind-3 fixture opened at generations %d, %d; want both upgraded to 1", up.Generation(0), up.Generation(1))
	}
	assertMapped("the kind-3 upgrade", up)
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
			if sum := st.Reads.TotalReads(); st.TotalReads != sum || st.Reads.Reads[storage.CatUnknown] != 0 {
				t.Errorf("k=%d query %d: TotalReads %d, tally %v (%d total)", k, i, st.TotalReads, st.Reads.Reads, sum)
			}
			n, cst := countStream(t, set, context.Background(), q)
			if n != len(want) || cst.Results != n {
				t.Errorf("k=%d query %d: count = %d, want %d", k, i, n, len(want))
			}
		}
		set.Close()
	}
}

// TestCrawlFromAcrossShards carries the paper's start-page claim to
// K=4: every ref a shard's Records yields is a valid CrawlFrom start on
// that shard, a crawl stays inside its shard, and the union over all
// starts is the range result.
func TestCrawlFromAcrossShards(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	set, err := Build(randomElements(r, 2500), Config{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	q := geom.CubeAt(geom.V(50, 50, 50), 60)
	want, _ := collectStream(t, set, context.Background(), q)
	union := make(map[uint64]bool)
	records := 0
	for s := range set.NumShards() {
		sh := set.Shard(s)
		err := sh.Records(func(rc core.Record) error {
			records++
			if owner, _ := storage.SplitShardPageID(rc.Ref.Page()); owner != s {
				t.Fatalf("shard %d enumerated %v, tagged with shard %d", s, rc.Ref, owner)
			}
			got, err := sh.CrawlFrom(q, rc.Ref)
			if err != nil {
				return err
			}
			for _, e := range got {
				if !e.Box.Intersects(q) || !set.ShardBounds(s).Contains(e.Box) {
					t.Fatalf("crawl from %v (shard %d) returned %v: outside the query or the shard", rc.Ref, s, e)
				}
				union[e.ID] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if records != set.NumPartitions() {
		t.Fatalf("enumerated %d records, set has %d partitions", records, set.NumPartitions())
	}
	if len(want) == 0 || len(union) != len(want) {
		t.Fatalf("union over all starts holds %d elements, range query %d", len(union), len(want))
	}
	for _, id := range sortedIDs(want) {
		if !union[id] {
			t.Fatalf("element %d is in the range result but in no crawl", id)
		}
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

	// A committed shard file cut short fails the open naming the shard,
	// and nothing is served: short by part of a page, its size is not
	// whole pages; short by whole pages, its last page is no superblock.
	whole, err := os.ReadFile(shardFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, short := range []int{storage.PageSize / 2, storage.PageSize, 2 * storage.PageSize} {
		if err := os.WriteFile(shardFile(dir, 1), whole[:len(whole)-short], 0o644); err != nil {
			t.Fatal(err)
		}
		set, err := OpenSet(dir, OpenOptions{})
		if err == nil {
			set.Close()
			t.Fatalf("Open with shard 1 short by %d bytes served a set", short)
		}
		msg := err.Error()
		named := strings.HasPrefix(msg, "shard 1: ")
		if !named || (!strings.Contains(msg, "not a multiple of 4096") && !strings.Contains(msg, "does not contain a FLAT superblock")) {
			t.Errorf("shard 1 short by %d bytes: error not diagnostic: %v", short, err)
		}
	}
	if err := os.WriteFile(shardFile(dir, 1), whole, 0o644); err != nil {
		t.Fatal(err)
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

// TestBuildReportsLowestInvalidBox pins the chunked validation scan to
// the sequential one it replaced: with invalid boxes in several chunks,
// Build names the lowest-index one, whatever GOMAXPROCS splits the scan
// into.
func TestBuildReportsLowestInvalidBox(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		els := randomElements(rand.New(rand.NewSource(29)), 1000)
		for _, i := range []int{901, 333, 334, 650} {
			els[i].Box.Min.X = math.NaN()
		}
		_, err := Build(els, Config{Shards: 4})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("element %d:", els[333].ID)) {
			t.Errorf("GOMAXPROCS=%d: Build error %v, want one naming element %d", procs, err, els[333].ID)
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

// TestQueryAfterClose pins that a query after Close touches no page:
// a mapped shard's pages alias the file's mapping, which Close unmaps,
// so the query must get the closed pager's error rather than fault. The
// memory set answers the same way.
func TestQueryAfterClose(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	els := randomElements(r, 3000)
	for _, dir := range []string{filepath.Join(t.TempDir(), "idx"), ""} {
		set, err := Build(append([]geom.Element(nil), els...), Config{Shards: 2, PageCapacity: 16, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range testQueries(r, 5) {
			countStream(t, set, context.Background(), q)
		}
		countStream(t, set, context.Background(), set.World())
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = set.StreamQuery(context.Background(), set.World(), StreamOptions{}, func(geom.Element) bool { return true })
		if err == nil {
			t.Errorf("dir %q: a query after Close succeeded", dir)
		}
	}
}
