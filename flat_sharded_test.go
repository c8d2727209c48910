package flat

import (
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"flat/internal/core"
	"flat/internal/storage"
)

func idsOf(els []Element) []uint64 {
	ids := make([]uint64, len(els))
	for i, e := range els {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func sameIDs(a, b []uint64) bool {
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

// TestShardedMatchesUnsharded checks every K against the default
// one-shard index on identical data.
func TestShardedMatchesUnsharded(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	els := randomElements(r, 5000)
	orig := append([]Element(nil), els...)
	queries := queryWorkload(r, 30)

	base, err := Build(append([]Element(nil), orig...), &Options{PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	for _, k := range []int{1, 2, 4, 8} {
		sx, err := Build(append([]Element(nil), orig...), &Options{Shards: k, PageCapacity: 16})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if sx.NumShards() != k || sx.Len() != len(orig) {
			t.Fatalf("k=%d: %d shards, %d elements", k, sx.NumShards(), sx.Len())
		}
		for i, box := range queries {
			want, wantStats, err := base.RangeQuery(box)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := sx.RangeQuery(box)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(idsOf(got), idsOf(want)) {
				t.Fatalf("k=%d query %d: %d results, want %d", k, i, len(got), len(want))
			}
			checkStats(t, gotStats, len(got))
			if k == 1 {
				// K=1 must be indistinguishable: same order, same reads.
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("k=1 query %d: order diverges at %d", i, j)
					}
				}
				_ = wantStats // cold-read parity is asserted below
			}
			n, _, err := sx.CountQuery(box)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Errorf("k=%d query %d: count %d, want %d", k, i, n, len(want))
			}
		}
		sx.Close()
	}
}

// TestShardedColdReadParityK1 is the acceptance criterion's read-count
// half: the one-shard index — Build's default, and Shards: 1 spelled
// out — serves every query with exactly the results and page reads of
// the bare core index, the paper's structure with nothing around it.
func TestShardedColdReadParityK1(t *testing.T) {
	// The fanout=8 case keeps Options.SeedFanout honest: a smaller fanout
	// deepens the seed tree, so a knob dropped on the way down shows up
	// as a read-count mismatch. The v2 case extends the invariant to the
	// compressed page format.
	cases := []struct {
		name   string
		fanout int
		format PageFormat
	}{
		{"fanout=0", 0, 0},
		{"fanout=8", 8, 0},
		{"fanout=8/v2", 8, PageFormatV2},
	}
	for _, tc := range cases {
		fanout, format := tc.fanout, tc.format
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(91))
			els := randomElements(r, 4000)
			orig := append([]Element(nil), els...)
			queries := queryWorkload(r, 25)

			refPool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
			ref, err := core.Build(refPool, append([]Element(nil), orig...), core.Options{PageCapacity: 16, SeedFanout: fanout, PageFormat: format})
			if err != nil {
				t.Fatal(err)
			}
			if fanout != 0 && ref.SeedHeight() < 3 {
				t.Fatalf("fanout %d did not deepen the seed tree (height %d)", fanout, ref.SeedHeight())
			}
			for _, shards := range []int{0, 1} {
				ix, err := Build(append([]Element(nil), orig...), &Options{Shards: shards, PageCapacity: 16, SeedFanout: fanout, PageFormat: format})
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				avg, err := ix.AvgNeighbors()
				if err != nil {
					t.Fatal(err)
				}
				refAvg, err := ref.AvgNeighbors()
				if err != nil {
					t.Fatal(err)
				}
				if ix.NumShards() != 1 || ix.SeedHeight() != ref.SeedHeight() || ix.ShardPageFormat(0) != ref.PageFormat() || avg != refAvg {
					t.Fatalf("Shards: %d: %d shards, seed height %d, format %v, %g neighbors; core reference %d, %v, %g — knob not plumbed?",
						shards, ix.NumShards(), ix.SeedHeight(), ix.ShardPageFormat(0), avg,
						ref.SeedHeight(), ref.PageFormat(), refAvg)
				}
				for i, q := range queries {
					refPool.DropFrames()
					if err := ix.DropCache(); err != nil {
						t.Fatal(err)
					}
					want, wantStats, err := ref.RangeQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					got, gotStats, err := ix.RangeQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("Shards: %d query %d: results differ from the core index (%d vs %d)", shards, i, len(got), len(want))
					}
					if gotStats != wantStats {
						t.Errorf("Shards: %d query %d: stats %+v, core index %+v", shards, i, gotStats, wantStats)
					}
				}
			}
		})
	}
}

func TestShardedDiskBacked(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	els := randomElements(r, 3000)
	orig := append([]Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "sharded-index")
	queries := queryWorkload(r, 15)

	sx, err := Build(els, &Options{Shards: 4, PageCapacity: 16, Dir: dir, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]uint64, len(queries))
	for i, q := range queries {
		res, _, err := sx.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = idsOf(res)
	}
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, &Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 4 || re.Len() != len(orig) {
		t.Fatalf("reopened: %d shards, %d elements", re.NumShards(), re.Len())
	}
	for i, q := range queries {
		res, st, err := re.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(res), want[i]) {
			t.Fatalf("query %d: reopened results differ", i)
		}
		checkStats(t, st, len(res))
	}
	// Point queries route through the same scatter path.
	pt, _, err := re.PointQuery(orig[11].Box.Center())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range pt {
		found = found || e.ID == 11
	}
	if !found {
		t.Error("PointQuery missed the element at its own center")
	}
}

func TestShardedConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	els := randomElements(r, 5000)
	sx, err := Build(els, &Options{Shards: 4, PageCapacity: 16, BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	runConcurrencyCheck(t, sx, els, queryWorkload(r, 20))
}
