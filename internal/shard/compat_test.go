package shard

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/neuro"
	"flat/internal/storage"
)

// kind2Fixture is a K=2, page-format-v2 index directory written before
// metadata pages moved to kind 3, so its metadata pages are kind 2
// (float64 MBRs, bare u64 neighbor refs). It was generated at commit
// 1a0bbe3 with
//
//	go run ./cmd/flatgen -kind neuro -n 4000 -seed 31 -out n4000.flte
//	go run ./cmd/flatindex -data n4000.flte -shards 2 -pageformat v2 -index kind2-k2-v2
//
// and kind2FixtureElements regenerates its elements in process. No query
// reads kind-2 pages any more: OpenSet upgrades the directory (upgrade).
const kind2Fixture = "testdata/kind2-k2-v2"

// upgradedPointers and upgradedPartitions are the neighbor pointer and
// partition counts an upgrade of either fixture writes. The fixtures'
// writer reported 238 over 36 (AvgNeighbors 6.611111111111111); the
// upgrade's bulkload cuts its STR slabs at whole pages, so each shard
// makes ceil(n/capacity) full partitions and fewer neighbors.
const upgradedPointers, upgradedPartitions = 148, 26

func kind2FixtureElements() []geom.Element {
	return neuro.Generate(neuro.Config{
		Seed:           31,
		TargetElements: 4000,
		Volume:         geom.Box(geom.V(0, 0, 0), geom.V(28.5, 28.5, 28.5)),
	}).Elements
}

// kind3Fixture is kind2Fixture's twin written by the last commit
// whose Build wrote kind-3 metadata pages (quantized MBRs, w-byte refs,
// 6-byte neighbor boxes against the world), with the same two commands.
// Both fixtures split the same elements into the same two shards, so
// their manifests are identical and their shard files interchangeable.
const kind3Fixture = "testdata/kind3-k2-v2"

// copyFixture copies fixture into a fresh directory: opening it writes.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestKind2FixtureServesAndRebuilds opens a directory of kind-2
// metadata pages: see checkFixtureUpgrade.
func TestKind2FixtureServesAndRebuilds(t *testing.T) {
	checkFixtureUpgrade(t, kind2Fixture, 41)
}

// TestKind3FixtureServesAndRebuilds is TestKind2FixtureServesAndRebuilds
// for kind-3 pages.
func TestKind3FixtureServesAndRebuilds(t *testing.T) {
	checkFixtureUpgrade(t, kind3Fixture, 43)
}

// checkFixtureUpgrade opens a copy of a fixture of an older metadata
// kind: the open gives the log-less fixture its log, upgrades both
// shards to kind 4 as generation 1, rotating the log, and collects the
// old files, the directory holds the neighbor counts a
// bulkload of its elements makes, and the set answers range, count and
// k-NN queries like brute force. A reopen finds nothing to upgrade. Then
// it stages inserts into one shard, rebuilds it, and answers like brute
// force again.
func checkFixtureUpgrade(t *testing.T, fixture string, seed int64) {
	dir := copyFixture(t, fixture)
	set, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { set.Close() }()
	els := kind2FixtureElements()
	if set.NumShards() != 2 || set.Len() != len(els) {
		t.Fatalf("fixture opened as %d shards of %d elements, want 2 of %d", set.NumShards(), set.Len(), len(els))
	}
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{4, 4}) {
		t.Fatalf("metadata kinds %v after the open, want [4 4]", kinds)
	}
	if got, want := dirFiles(t, dir), []string{"shard-0000.gen-1.flat", "shard-0001.gen-1.flat", "wal.gen-1.log"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("directory holds %v after the upgrade, want %v", got, want)
	}
	assertServesManifest(t, set, dir)
	r := rand.New(rand.NewSource(seed))
	checkAgainstBruteForce(t, set, els, r)
	if pointers, partitions := metadataCensus(t, set); pointers != upgradedPointers || partitions != upgradedPartitions {
		t.Errorf("upgraded fixture holds %d pointers over %d partitions, want %d over %d",
			pointers, partitions, upgradedPointers, upgradedPartitions)
	}

	// An upgraded directory opens as any kind-4 one: no rebuild, no write.
	before := readShardFiles(t, dir)
	set.Close()
	if set, err = OpenSet(dir, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if g := []uint64{set.Generation(0), set.Generation(1)}; !reflect.DeepEqual(g, []uint64{1, 1}) {
		t.Fatalf("reopened at generations %v, want [1 1]", g)
	}
	if after := readShardFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("reopening the upgraded directory rewrote its shard files")
	}

	added := stageAtLowX(t, set, r)
	if rebuilt, err := set.Rebuild(); err != nil || !reflect.DeepEqual(rebuilt, []int{0}) {
		t.Fatalf("Rebuild = %v, %v; want [0]", rebuilt, err)
	}
	checkAgainstBruteForce(t, set, append(els, added...), r)
}

// TestMixedKindsServeAndRebuild assembles one directory whose three
// shards hold kind-2, kind-3 and kind-4 metadata pages — shard 0 of the
// kind-2 fixture, shard 1 of the kind-3 one, and a shard Build writes
// now over fresh elements. The open upgrades the first two and keeps the
// third's file; the set answers like brute force, then stages a delete
// into every shard and rebuilds all three.
func TestMixedKindsServeAndRebuild(t *testing.T) {
	dir := copyFixture(t, kind3Fixture)
	copyFile(t, filepath.Join(kind2Fixture, "shard-0000.flat"), filepath.Join(dir, "shard-0000.flat"))
	// Page ids carry their shard's position, so the third shard comes
	// from a K=3 build's shard 2, over elements of its own.
	r := rand.New(rand.NewSource(47))
	var fresh []geom.Element
	for i := 0; i < 4500; i++ {
		c := geom.V(2+r.Float64()*24, 2+r.Float64()*24, 2+r.Float64()*24)
		fresh = append(fresh, geom.Element{ID: 700000 + uint64(i), Box: geom.CubeAt(c, 0.1+r.Float64()*0.3)})
	}
	sub := filepath.Join(t.TempDir(), "fresh")
	three, err := Build(fresh, Config{Shards: 3, Dir: sub, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = three.Shard(2).Elements()
	three.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := readManifest(sub)
	if err != nil {
		t.Fatal(err)
	}
	e := m3.Entries[2]
	copyFile(t, filepath.Join(sub, e.File), filepath.Join(dir, e.File))
	m.Shards, m.Entries = 3, append(m.Entries, e)
	m.World = mbrToArray(arrayToMBR(m.World).Union(arrayToMBR(m3.World)))
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	third, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		t.Fatal(err)
	}

	set, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { set.Close() }()
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{4, 4, 4}) {
		t.Fatalf("metadata kinds %v, want [4 4 4]", kinds)
	}
	if g := []uint64{set.Generation(0), set.Generation(1), set.Generation(2)}; !reflect.DeepEqual(g, []uint64{1, 1, 0}) {
		t.Fatalf("generations %v after the upgrade, want [1 1 0]", g)
	}
	if kept, err := os.ReadFile(filepath.Join(dir, e.File)); err != nil || !bytes.Equal(kept, third) {
		t.Fatalf("the kind-4 shard's file changed on open (%v)", err)
	}
	els := append(kind2FixtureElements(), fresh...)
	checkAgainstBruteForce(t, set, els, r)

	// One element of each shard, found through that shard alone (as it
	// decodes: a v2 box, which the delete matches).
	var gone []geom.Element
	for s := 0; s < set.NumShards(); s++ {
		got, err := set.Shard(s).Elements()
		if err != nil || len(got) == 0 {
			t.Fatalf("shard %d: %d elements, %v", s, len(got), err)
		}
		gone = append(gone, got[len(got)/2])
	}
	for _, e := range gone {
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
	}
	if rebuilt, err := set.Rebuild(); err != nil || !reflect.DeepEqual(rebuilt, []int{0, 1, 2}) {
		t.Fatalf("Rebuild = %v, %v; want [0 1 2]", rebuilt, err)
	}
	kept := slices.DeleteFunc(els, func(e geom.Element) bool {
		return slices.ContainsFunc(gone, func(g geom.Element) bool { return g.ID == e.ID })
	})
	checkAgainstBruteForce(t, set, kept, r)
}

// TestUpgradeFoldsTheLog opens a kind-3 directory whose manifest names a
// write-ahead log of staged inserts and deletes: the upgrade folds them
// into the rebuilt shards once — the set answers with them, has nothing
// staged, holds no id twice — and rotates the log, so a second open
// replays nothing and answers the same.
func TestUpgradeFoldsTheLog(t *testing.T) {
	els := kind2FixtureElements()
	dir := filepath.Join(t.TempDir(), "idx")
	set, err := Build(slices.Clone(els), Config{Shards: 2, Dir: dir, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(53))
	var added []geom.Element
	for i := 0; i < 200; i++ {
		c := geom.V(r.Float64()*28.5, r.Float64()*28.5, r.Float64()*28.5)
		added = append(added, geom.Element{ID: 800000 + uint64(i), Box: geom.CubeAt(c, 0.1)})
	}
	if err := set.StageInsert(added...); err != nil {
		t.Fatal(err)
	}
	gone := map[uint64]bool{}
	for _, e := range append(els[:60:60], added[:20]...) {
		if err := set.StageDelete(e.ID, e.Box); err != nil {
			t.Fatal(err)
		}
		gone[e.ID] = true
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	set.Close()
	for _, f := range []string{"shard-0000.flat", "shard-0001.flat"} {
		copyFile(t, filepath.Join(kind3Fixture, f), filepath.Join(dir, f))
	}

	set, err = OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{4, 4}) {
		t.Fatalf("metadata kinds %v after the open, want [4 4]", kinds)
	}
	if ds, dirty := set.DeltaStats(), set.DirtyShards(); ds.Inserts != 0 || ds.Deletes != 0 || len(dirty) != 0 {
		t.Fatalf("staged after the upgrade: %+v, dirty shards %v", ds, dirty)
	}
	live := slices.DeleteFunc(append(slices.Clone(els), added...), func(e geom.Element) bool { return gone[e.ID] })
	var stored []uint64
	for s := 0; s < set.NumShards(); s++ {
		got, err := set.Shard(s).Elements()
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, idsOf(got)...)
	}
	slices.Sort(stored)
	if want := sortedIDs(live); !slices.Equal(stored, want) {
		t.Fatalf("upgraded shards hold %d ids, want the %d live ones once each", len(stored), len(want))
	}
	checkAgainstBruteForce(t, set, live, rand.New(rand.NewSource(59)))
	queries := make([]geom.MBR, 30)
	first := make([][]uint64, len(queries))
	for i := range queries {
		queries[i] = geom.CubeAt(geom.V(r.Float64()*28.5, r.Float64()*28.5, r.Float64()*28.5), 1+r.Float64()*6)
		first[i] = queryIDs(t, set, queries[i])
	}
	set.Close()

	if set, err = OpenSet(dir, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if ds := set.DeltaStats(); ds.Inserts != 0 || ds.Deletes != 0 {
		t.Fatalf("the reopen replayed %+v", ds)
	}
	for i, q := range queries {
		if got := queryIDs(t, set, q); !slices.Equal(got, first[i]) {
			t.Fatalf("query %v: %d results on reopen, %d on the upgrading open", q, len(got), len(first[i]))
		}
	}
}

// TestFailedUpgradeServesNothing puts a directory where the upgrade's
// first shard file goes, so its bulkload fails (for root too, unlike a
// permission bit): OpenSet fails naming the shard and its kind, and
// leaves the shard files and the manifest's entries as they were; what
// it committed is the log-less fixture's log alone. Once the obstacle
// is gone the open upgrades.
func TestFailedUpgradeServesNothing(t *testing.T) {
	dir := copyFixture(t, kind2Fixture)
	obstacle := filepath.Join(dir, shardFileName(0, 1))
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	manifestBefore, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	namesBefore, filesBefore := listing(), readShardFiles(t, dir)

	set, err := OpenSet(dir, OpenOptions{})
	if err == nil {
		set.Close()
		t.Fatal("OpenSet served a directory it could not upgrade")
	}
	if !strings.Contains(err.Error(), "shard 0 (kind 2)") {
		t.Errorf("error %q does not name the shard and its kind", err)
	}
	want := manifestBefore
	want.WAL = walFileName(0)
	if m, err := readManifest(dir); err != nil || !reflect.DeepEqual(m, want) {
		t.Errorf("after the failed upgrade the manifest reads %+v (%v), want %+v", m, err, want)
	}
	if names, want := listing(), append(namesBefore, walFileName(0)); !reflect.DeepEqual(names, want) {
		t.Errorf("the failed upgrade left %v, want %v", names, want)
	}
	if files := readShardFiles(t, dir); !reflect.DeepEqual(files, filesBefore) {
		t.Error("the failed upgrade changed a shard file")
	}

	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	if set, err = OpenSet(dir, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{4, 4}) {
		t.Fatalf("metadata kinds %v, want [4 4]", kinds)
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err == nil {
		err = os.WriteFile(to, b, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// stageAtLowX stages 300 small elements at the low-x face of shard 0's
// bounds, outside shard 1's, so they stage into shard 0 alone.
func stageAtLowX(t *testing.T, set *Set, r *rand.Rand) []geom.Element {
	t.Helper()
	lo := set.ShardBounds(0).Min
	var added []geom.Element
	for i := 0; i < 300; i++ {
		c := geom.V(lo.X+0.05, 2+r.Float64()*24, 2+r.Float64()*24)
		added = append(added, geom.Element{ID: 900000 + uint64(i), Box: geom.CubeAt(c, 0.08)})
	}
	if err := set.StageInsert(added...); err != nil {
		t.Fatal(err)
	}
	if dirty := set.DirtyShards(); !reflect.DeepEqual(dirty, []int{0}) {
		t.Fatalf("staged into shards %v, want [0]", dirty)
	}
	return added
}

// metadataKinds returns each shard's metadata-page kind.
func metadataKinds(t *testing.T, set *Set) []int {
	t.Helper()
	kinds := make([]int, set.NumShards())
	for i := range kinds {
		var err error
		if kinds[i], err = set.Shard(i).MetadataKind(); err != nil {
			t.Fatal(err)
		}
	}
	return kinds
}

// metadataCensus counts the set's neighbor pointers and partitions, and
// checks that every pointer carries a box.
func metadataCensus(t *testing.T, set *Set) (pointers, partitions int) {
	t.Helper()
	for i := 0; i < set.NumShards(); i++ {
		err := set.Shard(i).Records(func(r core.Record) error {
			if len(r.NeighborBoxes) != len(r.Neighbors) {
				t.Fatalf("shard %d record %v: %d boxes for %d neighbors", i, r.Ref, len(r.NeighborBoxes), len(r.Neighbors))
			}
			pointers += len(r.Neighbors)
			partitions++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pointers, partitions
}

// checkAgainstBruteForce compares range and count queries by id set and
// k-NN streams, cut at 25 and drained whole, by distance, position for
// position.
func checkAgainstBruteForce(t *testing.T, set *Set, els []geom.Element, r *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		c := geom.V(r.Float64()*28.5, r.Float64()*28.5, r.Float64()*28.5)
		q := geom.CubeAt(c, 0.5+r.Float64()*8)
		var want []uint64
		for _, e := range els {
			if e.Box.Intersects(q) {
				want = append(want, e.ID)
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		got, _ := collectStream(t, set, ctx, q)
		ids := make([]uint64, len(got))
		for j, e := range got {
			ids[j] = e.ID
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		if !equalIDs(ids, want) {
			t.Fatalf("range %v: %d results, brute force %d", q, len(ids), len(want))
		}
		if n, _ := countStream(t, set, ctx, q); n != len(want) {
			t.Fatalf("count %v = %d; brute force %d", q, n, len(want))
		}
	}
	for i := 0; i < 10; i++ {
		p := geom.V(r.Float64()*28.5, r.Float64()*28.5, r.Float64()*28.5)
		want := make([]float64, len(els))
		for j, e := range els {
			want[j] = e.Box.DistSqToPoint(p)
		}
		sort.Float64s(want)
		// At three of the points the stream is drained whole (k=0), so
		// every record is expanded and every neighbor pointer followed.
		for _, k := range []int{25, 0} {
			if k == 0 && i >= 3 {
				continue
			}
			var got []float64
			_, err := set.NNQuery(ctx, p, k, func(_ geom.Element, d float64) bool {
				got = append(got, d)
				return k == 0 || len(got) < k
			})
			if err != nil {
				t.Fatal(err)
			}
			// v2 object pages widen each box by at most 2^-32 of its page's
			// extent, so a decoded distance sits a hair below the exact one.
			if n := len(want); k > 0 && len(got) != k || k == 0 && len(got) != n {
				t.Fatalf("k-NN at %v, k=%d: %d results, brute force %d", p, k, len(got), n)
			}
			for j, d := range got {
				if d > want[j] || d < want[j]-1e-6 {
					t.Fatalf("k-NN at %v, k=%d: distance %d is %v, brute force %v", p, k, j, d, want[j])
				}
			}
		}
	}
}
