package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.flat")
	r := rand.New(rand.NewSource(257))
	els := randomElements(r, 3000, worldBox())
	orig := make([]geom.Element, len(els))
	copy(orig, els)

	// Build on a file pager and write the superblock.
	fp, err := storage.CreateFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewConcurrentPool(fp, 0)
	ix, err := Build(pool, els, Options{World: worldBox()})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.CubeAt(geom.V(40, 40, 40), 18)
	wantRes, _, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := sortedIDs(wantRes)
	if !equalIDs(wantIDs, bruteForce(orig, q)) {
		t.Fatal("pre-close query wrong")
	}
	if err := ix.WriteSuper(); err != nil {
		t.Fatal(err)
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and compare.
	fp2, err := storage.OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	pool2 := storage.NewConcurrentPool(fp2, 0)
	ix2, err := Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != ix.Len() || ix2.SeedHeight() != ix.SeedHeight() ||
		ix2.NumPartitions() != ix.NumPartitions() || ix2.World() != ix.World() {
		t.Fatalf("header mismatch after reopen: %+v", ix2)
	}
	got, stats, err := ix2.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(got), wantIDs) {
		t.Fatalf("reopened query: got %d, want %d", len(got), len(wantIDs))
	}
	// Categories were re-registered: the breakdown must be populated.
	if stats.ObjectReads == 0 || stats.MetadataReads == 0 {
		t.Errorf("reopened stats lack categories: %+v", stats)
	}
	// A second query region for good measure.
	q2 := geom.CubeAt(geom.V(70, 20, 55), 25)
	got2, _, err := ix2.RangeQuery(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(got2), bruteForce(orig, q2)) {
		t.Fatal("second reopened query wrong")
	}
}

func TestOpenErrors(t *testing.T) {
	// Empty pager.
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	if _, err := Open(pool); err != ErrNoSuper {
		t.Errorf("empty: %v", err)
	}
	// Pager without a superblock (just a data page).
	p := storage.NewMemPager()
	pool = storage.NewConcurrentPool(p, 0)
	if _, err := pool.Alloc(storage.CatObject); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pool); err != ErrNoSuper {
		t.Errorf("no super: %v", err)
	}
}

func TestPersistOnMemPager(t *testing.T) {
	// WriteSuper/Open also work on a memory pager (no category
	// re-registration needed: MemPager keeps categories).
	r := rand.New(rand.NewSource(263))
	els := randomElements(r, 500, worldBox())
	orig := make([]geom.Element, len(els))
	copy(orig, els)
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	ix, err := Build(pool, els, Options{World: worldBox()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteSuper(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.CubeAt(geom.V(50, 50, 50), 30)
	got, _, err := ix2.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(got), bruteForce(orig, q)) {
		t.Fatal("mem reopen query wrong")
	}
}
