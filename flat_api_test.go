package flat

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flat/internal/core"
	"flat/internal/storage"
)

func randomElements(r *rand.Rand, n int) []Element {
	els := make([]Element, n)
	for i := range els {
		c := V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		els[i] = Element{ID: uint64(i), Box: CubeAt(c, 0.5+r.Float64())}
	}
	return els
}

func apiBrute(els []Element, q MBR) []uint64 {
	var ids []uint64
	for _, e := range els {
		if e.Box.Intersects(q) {
			ids = append(ids, e.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestPublicAPIRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	els := randomElements(r, 2000)
	orig := make([]Element, len(els))
	copy(orig, els)

	ix, err := Build(els, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != 2000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	q := Box(V(20, 20, 20), V(50, 55, 60))
	got, stats, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want := apiBrute(orig, q)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	if stats.Results != len(got) || stats.TotalReads == 0 {
		t.Errorf("stats implausible: %+v", stats)
	}

	n, _, err := ix.CountQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Errorf("CountQuery = %d, want %d", n, len(want))
	}

	pt, _, err := ix.PointQuery(orig[7].Box.Center())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range pt {
		if e.ID == 7 {
			found = true
		}
	}
	if !found {
		t.Error("PointQuery missed the element at its own center")
	}

	if ix.SeedHeight() < 1 || ix.NumPartitions() < 10 || ix.SizeBytes() == 0 {
		t.Errorf("accessors implausible: %s", ix)
	}
	if avg, err := ix.AvgNeighbors(); err != nil || avg <= 0 {
		t.Errorf("AvgNeighbors = %v, %v", avg, err)
	}
	if !ix.set.World().Contains(ix.Bounds()) {
		t.Error("world/bounds")
	}
}

func TestPublicAPIDiskBacked(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	els := randomElements(r, 500)
	orig := make([]Element, len(els))
	copy(orig, els)
	dir := filepath.Join(t.TempDir(), "index.flat")
	ix, err := Build(els, &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := CubeAt(V(50, 50, 50), 30)
	got, _, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(apiBrute(orig, q)) {
		t.Error("disk-backed query mismatch")
	}
	got2, stats, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(got) {
		t.Error("cold query mismatch")
	}
	if stats.TotalReads == 0 {
		t.Error("cold query should read pages")
	}
}

func TestPublicRTree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	els := randomElements(r, 3000)
	orig := make([]Element, len(els))
	copy(orig, els)
	for _, s := range []RTreeStrategy{RTreeSTR, RTreeHilbert, RTreePR} {
		cp := make([]Element, len(els))
		copy(cp, els)
		tr, err := BuildRTree(cp, s, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		q := CubeAt(V(40, 60, 50), 25)
		got, stats, err := tr.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(apiBrute(orig, q)) {
			t.Errorf("%v: result mismatch", s)
		}
		if stats.Reads.Reads[storage.CatRTreeLeaf] == 0 || stats.Reads.Reads[storage.CatRTreeInternal] == 0 {
			t.Errorf("%v: stats implausible %+v", s, stats)
		}
		if tr.Height() < 2 || tr.Len() != 3000 || tr.SizeBytes() == 0 {
			t.Errorf("%v: accessors implausible", s)
		}
		if _, _, err := tr.PointQuery(orig[0].Box.Center()); err != nil {
			t.Fatal(err)
		}
		tr.Close()
	}
}

func TestStrategyNames(t *testing.T) {
	if RTreeSTR.String() != "STR R-Tree" || RTreePR.String() != "PR-Tree" {
		t.Error("strategy names")
	}
}

func TestBuildThenOpen(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	els := randomElements(r, 800)
	orig := make([]Element, len(els))
	copy(orig, els)
	dir := filepath.Join(t.TempDir(), "persist.flat")

	// inspect reads everything the inspection surface answers, plus one
	// cold query with its stats: the built index and every way of
	// reopening its directory must agree on all of it.
	type inspection struct {
		len, seedHeight int
		avgNeighbors    float64 // read off the pages: a reopened index used to answer 0
		format          PageFormat
		world, bounds   MBR
		refs            []core.RecordRef
		crawled, got    []Element
		stats           QueryStats
	}
	q := CubeAt(V(45, 55, 50), 28)
	inspect := func(ix *Index) inspection {
		t.Helper()
		in := inspection{len: ix.Len(), seedHeight: ix.SeedHeight(), format: ix.ShardPageFormat(0), world: ix.set.World(), bounds: ix.Bounds()}
		// One shard: its records are the index's, and any is a crawl start.
		sh := ix.set.Shard(0)
		var start core.RecordRef
		err := sh.Records(func(r core.Record) error {
			if len(in.refs) == 0 || r.PartitionMBR.Intersects(q) {
				start = r.Ref
			}
			in.refs = append(in.refs, r.Ref)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if in.crawled, err = sh.CrawlFrom(q, start); err != nil {
			t.Fatal(err)
		}
		if in.avgNeighbors, err = ix.AvgNeighbors(); err != nil {
			t.Fatal(err)
		}
		if in.got, in.stats, err = ix.RangeQuery(q); err != nil {
			t.Fatal(err)
		}
		return in
	}

	ix, err := Build(els, &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := inspect(ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if want.len != len(orig) || len(want.got) != len(apiBrute(orig, q)) || !sameIDs(idsOf(want.crawled), idsOf(want.got)) {
		t.Fatalf("built index: Len %d, %d results, %d crawled", want.len, len(want.got), len(want.crawled))
	}
	if want.stats.TotalReads == 0 || want.stats.Reads.Reads[storage.CatObject] == 0 || want.seedHeight < 1 || len(want.refs) == 0 || want.avgNeighbors <= 0 {
		t.Errorf("built index implausible: %+v, seed height %d, %d records, %g neighbors", want.stats, want.seedHeight, len(want.refs), want.avgNeighbors)
	}

	// Open consults no option (WAL is a reserved no-op): every row opens
	// the same index, with the log Build wrote.
	for _, opts := range []*Options{nil, {}, {WAL: true}} {
		re, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open(%+v): %v", opts, err)
		}
		if got := inspect(re); !reflect.DeepEqual(got, want) {
			t.Errorf("Open(%+v): reopened index answers\n%+v\nwant\n%+v", opts, got, want)
		}
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil {
			t.Errorf("Open(%+v): %v, want the directory's log", opts, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("Open(%+v): close: %v", opts, err)
		}
	}

	// What is not an index directory does not open, and says why.
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Error("Open of a missing directory should fail")
	}
	if _, err := Open(t.TempDir(), nil); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Errorf("Open of a directory without a manifest: %v, want an error naming the manifest", err)
	}
	if _, err := Open(filepath.Join(dir, "shard-0000.flat"), nil); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("Open of a regular file: %v, want an error saying it is not a directory", err)
	}
}

// TestCorruptSeedNodeFailsQuery: a seed-tree internal page whose entry
// count was overwritten (0xFFFF, far past what a page holds) fails the
// queries that walk into it with an error naming the page; it used to
// index past the page buffer and panic.
func TestCorruptSeedNodeFailsQuery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corrupt.flat")
	path := filepath.Join(dir, "shard-0000.flat")
	ix, err := Build(randomElements(rand.New(rand.NewSource(6)), 800), &Options{Dir: dir, pageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.SeedHeight() < 2 {
		t.Fatalf("seed height %d: no internal node to corrupt", ix.SeedHeight())
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// The seed root is the last page before the superblock.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	root := info.Size()/PageSize - 2
	if _, err := f.WriteAt([]byte{0xff, 0xff}, root*PageSize+2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ix, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	want := fmt.Sprintf("seed page %d", root)
	if _, _, err := ix.RangeQuery(CubeAt(V(50, 50, 50), 10)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RangeQuery over a corrupt seed root: %v, want an error naming %q", err, want)
	}
	if _, _, err := ix.NN(context.Background(), V(50, 50, 50), 3).Collect(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("NN over a corrupt seed root: %v, want an error naming %q", err, want)
	}
}

func TestBuildEmptyInput(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Error("empty Build should fail")
	}
	if _, err := BuildRTree(nil, RTreeSTR, nil); err == nil {
		t.Error("empty BuildRTree should fail")
	}
}
