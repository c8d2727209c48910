package shard

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/neuro"
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
// kind-3 shard beside a kind-2 one, and answers like brute force again.
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

	// Small elements at the low-x face of shard 0's bounds lie outside
	// shard 1's, so they stage into shard 0 alone.
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
	if rebuilt, err := set.Rebuild(); err != nil || !reflect.DeepEqual(rebuilt, []int{0}) {
		t.Fatalf("Rebuild = %v, %v; want [0]", rebuilt, err)
	}
	if _, _, boxed = metadataCensus(t, set); !reflect.DeepEqual(boxed, []bool{true, false}) {
		t.Fatalf("boxed pointers per shard %v after rebuilding shard 0, want [true false]", boxed)
	}
	checkAgainstBruteForce(t, set, append(els, added...), r)
}

// metadataCensus counts the set's neighbor pointers and partitions and
// reports, per shard, whether its pointers carry boxes (kind 3).
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
