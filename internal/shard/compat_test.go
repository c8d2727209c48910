package shard

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
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
// and kind2FixtureElements regenerates its elements in process.
const kind2Fixture = "testdata/kind2-k2-v2"

// kind2Pointers and kind2Partitions are the fixture's neighbor pointer
// and partition counts as its writer reported them (AvgNeighbors
// 6.611111111111111).
const kind2Pointers, kind2Partitions = 238, 36

func kind2FixtureElements() []geom.Element {
	return neuro.Generate(neuro.Config{
		Seed:           31,
		TargetElements: 4000,
		Volume:         geom.Box(geom.V(0, 0, 0), geom.V(28.5, 28.5, 28.5)),
	}).Elements
}

// TestKind2FixtureServesAndRebuilds opens a directory of kind-2
// metadata pages, answers range, count and k-NN queries like brute
// force, and reads back the neighbor counts its writer recorded; then it
// stages inserts into one shard and rebuilds it, so the set serves one
// kind-4 shard beside a kind-2 one, and answers like brute force again.
func TestKind2FixtureServesAndRebuilds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	if err := os.CopyFS(dir, os.DirFS(kind2Fixture)); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { set.Close() }()
	els := kind2FixtureElements()
	if set.NumShards() != 2 || set.Len() != len(els) {
		t.Fatalf("fixture opened as %d shards of %d elements, want 2 of %d", set.NumShards(), set.Len(), len(els))
	}
	r := rand.New(rand.NewSource(41))
	checkAgainstBruteForce(t, set, els, r)
	pointers, partitions, boxed := metadataCensus(t, set)
	if pointers != kind2Pointers || partitions != kind2Partitions {
		t.Errorf("fixture holds %d pointers over %d partitions, its writer recorded %d over %d",
			pointers, partitions, kind2Pointers, kind2Partitions)
	}
	if want := []bool{false, false}; !reflect.DeepEqual(boxed, want) {
		t.Fatalf("boxed pointers per shard %v, want %v (kind 2 only)", boxed, want)
	}

	added := stageAtLowX(t, set, r)
	if rebuilt, err := set.Rebuild(); err != nil || !reflect.DeepEqual(rebuilt, []int{0}) {
		t.Fatalf("Rebuild = %v, %v; want [0]", rebuilt, err)
	}
	if _, _, boxed = metadataCensus(t, set); !reflect.DeepEqual(boxed, []bool{true, false}) {
		t.Fatalf("boxed pointers per shard %v after rebuilding shard 0, want [true false]", boxed)
	}
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{4, 2}) {
		t.Fatalf("metadata kinds %v after rebuilding shard 0, want [4 2]", kinds)
	}
	checkAgainstBruteForce(t, set, append(els, added...), r)
}

// kind3Fixture is kind2Fixture's twin written by the last commit
// whose Build wrote kind-3 metadata pages (quantized MBRs, w-byte refs,
// 6-byte neighbor boxes against the world), with the same two commands.
// Both fixtures split the same elements into the same two shards, so
// their manifests are identical and their shard files interchangeable.
const kind3Fixture = "testdata/kind3-k2-v2"

// TestKind3FixtureServesAndRebuilds is TestKind2FixtureServesAndRebuilds
// for kind-3 pages: the fixture answers like brute force and holds the
// neighbor counts its writer recorded; after staging into shard 0 and
// rebuilding it, a kind-4 shard serves beside a kind-3 one.
func TestKind3FixtureServesAndRebuilds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	if err := os.CopyFS(dir, os.DirFS(kind3Fixture)); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { set.Close() }()
	els := kind2FixtureElements()
	r := rand.New(rand.NewSource(43))
	checkAgainstBruteForce(t, set, els, r)
	if pointers, partitions, _ := metadataCensus(t, set); pointers != kind2Pointers || partitions != kind2Partitions {
		t.Errorf("fixture holds %d pointers over %d partitions, its writer recorded %d over %d",
			pointers, partitions, kind2Pointers, kind2Partitions)
	}
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{3, 3}) {
		t.Fatalf("metadata kinds %v, want [3 3]", kinds)
	}
	added := stageAtLowX(t, set, r)
	if rebuilt, err := set.Rebuild(); err != nil || !reflect.DeepEqual(rebuilt, []int{0}) {
		t.Fatalf("Rebuild = %v, %v; want [0]", rebuilt, err)
	}
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{4, 3}) {
		t.Fatalf("metadata kinds %v after rebuilding shard 0, want [4 3]", kinds)
	}
	checkAgainstBruteForce(t, set, append(els, added...), r)
}

// TestMixedKindsServeAndRebuild assembles one directory whose three
// shards hold kind-2, kind-3 and kind-4 metadata pages — shard 0 of the
// kind-2 fixture, shard 1 of the kind-3 one, and a shard Build writes
// now over fresh elements — checks it against brute force, then stages
// a delete into every shard and rebuilds all three to kind 4.
func TestMixedKindsServeAndRebuild(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	if err := os.CopyFS(dir, os.DirFS(kind3Fixture)); err != nil {
		t.Fatal(err)
	}
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
	fresh, _, err = three.Shard(2).RangeQuery(three.ShardBounds(2))
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

	set, err := OpenSet(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { set.Close() }()
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{2, 3, 4}) {
		t.Fatalf("metadata kinds %v, want [2 3 4]", kinds)
	}
	els := append(kind2FixtureElements(), fresh...)
	checkAgainstBruteForce(t, set, els, r)

	// One element of each shard, found through that shard alone (as it
	// decodes: a v2 box, which the delete matches).
	var gone []geom.Element
	for s := 0; s < set.NumShards(); s++ {
		got, _, err := set.Shard(s).RangeQuery(set.ShardBounds(s))
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
	if kinds := metadataKinds(t, set); !reflect.DeepEqual(kinds, []int{4, 4, 4}) {
		t.Fatalf("metadata kinds %v after the rebuild, want [4 4 4]", kinds)
	}
	kept := slices.DeleteFunc(els, func(e geom.Element) bool {
		return slices.ContainsFunc(gone, func(g geom.Element) bool { return g.ID == e.ID })
	})
	checkAgainstBruteForce(t, set, kept, r)
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

// metadataCensus counts the set's neighbor pointers and partitions and
// reports, per shard, whether its pointers carry boxes (kinds 3 and 4).
func metadataCensus(t *testing.T, set *Set) (pointers, partitions int, boxed []bool) {
	t.Helper()
	for i := 0; i < set.NumShards(); i++ {
		hasBoxes := false
		err := set.Shard(i).Records(func(r core.Record) error {
			pointers += len(r.Neighbors)
			partitions++
			hasBoxes = hasBoxes || r.NeighborBoxes != nil
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		boxed = append(boxed, hasBoxes)
	}
	return pointers, partitions, boxed
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
