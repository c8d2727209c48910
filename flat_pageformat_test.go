package flat

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// TestPageFormatV2PublicRoundTrip drives page format v2 through the
// public API: build to disk under v2, reopen, and require identical
// results and read counts from the build and the reopen.
func TestPageFormatV2PublicRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	els := randomElements(r, 3000)
	orig := append([]Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "v2.flat")
	queries := queryWorkload(r, 15)

	ix, err := Build(els, &Options{Dir: dir, PageFormat: PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.ShardPageFormat(0) != PageFormatV2 {
		t.Fatalf("built format %v", ix.ShardPageFormat(0))
	}
	type base struct {
		ids   []uint64
		reads uint64
	}
	want := make([]base, len(queries))
	for i, q := range queries {
		got, st, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = base{ids: idsOf(got), reads: st.TotalReads}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.ShardPageFormat(0) != PageFormatV2 {
		t.Fatalf("reopened format %v", re.ShardPageFormat(0))
	}
	for i, q := range queries {
		got, st, err := re.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), want[i].ids) {
			t.Fatalf("query %d: results differ from build", i)
		}
		if st.TotalReads != want[i].reads {
			t.Errorf("query %d: cold reads %d, want %d", i, st.TotalReads, want[i].reads)
		}
	}

	// Brute-force ground truth, independent of any index.
	for i, q := range queries {
		if truth := idsOf(elementsIntersecting(orig, q)); !sameIDs(want[i].ids, truth) {
			t.Fatalf("query %d: v2 results diverge from brute force (%d)", i, len(truth))
		}
	}
}

func elementsIntersecting(els []Element, q MBR) []Element {
	var out []Element
	for _, e := range els {
		if e.Box.Intersects(q) {
			out = append(out, e)
		}
	}
	return out
}

// TestShardedMmapOpen opens a v2 sharded index, served through its
// shard files' mappings, and exercises the full maintenance cycle on
// it: query, stage, rebuild (which swaps the rebuilt shards' mappings
// for their new files'), query again.
func TestShardedMmapOpen(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	els := randomElements(r, 2500)
	orig := append([]Element(nil), els...)
	dir := filepath.Join(t.TempDir(), "sharded-v2")
	queries := queryWorkload(r, 10)

	sx, err := Build(els, &Options{Shards: 3, Dir: dir, PageFormat: PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for s := 0; s < re.NumShards(); s++ {
		if f := re.ShardPageFormat(s); f != PageFormatV2 {
			t.Fatalf("shard %d format %v", s, f)
		}
	}
	for i, q := range queries {
		got, _, err := re.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), idsOf(elementsIntersecting(orig, q))) {
			t.Fatalf("query %d wrong over mmap", i)
		}
	}

	ins := Element{ID: 70001, Box: CubeAt(V(50, 50, 50), 1)}
	if err := re.StageInsert(ins); err != nil {
		t.Fatal(err)
	}
	if err := re.StageDelete(orig[0].ID, orig[0].Box); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Rebuild(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]Element(nil), orig[1:]...), ins)
	for i, q := range queries {
		got, _, err := re.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), idsOf(elementsIntersecting(want, q))) {
			t.Fatalf("query %d wrong after rebuild over mmap", i)
		}
	}
}
