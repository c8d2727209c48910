package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// buildWithFormat builds an index over a private copy of els (Build
// reorders its input) on an unbounded mem-backed pool.
func buildWithFormat(t *testing.T, els []geom.Element, opts Options) *Index {
	t.Helper()
	cp := make([]geom.Element, len(els))
	copy(cp, els)
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	ix, err := Build(pool, cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestPageFormatV2Parity is the core correctness claim of page format
// v2: the same data built under v1 and v2 answers every range and count
// query with exactly the same element set. (Result order differs — v2
// packs more elements per partition, so the BFS visits pages in a
// different sequence — hence the ID-sorted comparison.)
func TestPageFormatV2Parity(t *testing.T) {
	r := rand.New(rand.NewSource(421))
	els := randomElements(r, 6000, worldBox())
	orig := make([]geom.Element, len(els))
	copy(orig, els)

	v1 := buildWithFormat(t, els, Options{World: worldBox()})
	v2 := buildWithFormat(t, els, Options{World: worldBox(), PageFormat: storage.PageFormatV2})

	if v1.PageFormat() != storage.PageFormatV1 || v2.PageFormat() != storage.PageFormatV2 {
		t.Fatalf("formats: %v %v", v1.PageFormat(), v2.PageFormat())
	}
	if ratio := float64(v1.NumPartitions()) / float64(v2.NumPartitions()); ratio < 1.5 {
		t.Fatalf("v2 should need ≥1.5× fewer object pages, got %d vs %d (%.2fx)",
			v1.NumPartitions(), v2.NumPartitions(), ratio)
	}

	queries := []geom.MBR{
		geom.CubeAt(geom.V(50, 50, 50), 20),
		geom.CubeAt(geom.V(12, 80, 33), 8),
		geom.CubeAt(geom.V(90, 10, 90), 35),
		worldBox(),
		geom.CubeAt(geom.V(-50, -50, -50), 10), // empty
	}
	for qi, q := range queries {
		want := bruteForce(orig, q)
		res1, _, err := v1.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res2, _, err := v2.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(res1), want) {
			t.Fatalf("query %d: v1 wrong", qi)
		}
		if !equalIDs(sortedIDs(res2), want) {
			t.Fatalf("query %d: v2 returned %d elements, brute force %d", qi, len(res2), len(want))
		}
		n1, _, err := v1.CountQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		n2, _, err := v2.CountQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != len(want) || n2 != len(want) {
			t.Fatalf("query %d: counts v1=%d v2=%d want %d", qi, n1, n2, len(want))
		}
	}
}

func TestBuildCapacityValidationPerFormat(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	els := randomElements(r, 200, worldBox())

	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	cp := append([]geom.Element(nil), els...)
	if _, err := Build(pool, cp, Options{World: worldBox(), PageCapacity: 100}); err == nil {
		t.Fatal("capacity 100 accepted under v1 (max 73)")
	}
	cp = append([]geom.Element(nil), els...)
	ix, err := Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp,
		Options{World: worldBox(), PageCapacity: 100, PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatalf("capacity 100 rejected under v2: %v", err)
	}
	if ix.PageFormat() != storage.PageFormatV2 {
		t.Fatal("format lost")
	}
	// v2's bound follows the input's id span: a narrow span takes more
	// than 126 elements a page, a full-width one exactly 126.
	lo, hi := els[0].ID, els[0].ID
	for _, e := range els {
		lo, hi = min(lo, e.ID), max(hi, e.ID)
	}
	narrow := storage.ObjectPageCapacityForSpan(storage.PageFormatV2, hi-lo)
	if narrow <= storage.ObjectPageCapacityV2 {
		t.Fatalf("ids %d..%d: v2 capacity %d, want above %d", lo, hi, narrow, storage.ObjectPageCapacityV2)
	}
	wide := append([]geom.Element(nil), els...)
	wide[0].ID = math.MaxUint64
	for _, c := range []struct {
		els      []geom.Element
		capacity int
	}{{els, narrow}, {wide, storage.ObjectPageCapacityV2}} {
		cp = append([]geom.Element(nil), c.els...)
		if _, err := Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp,
			Options{World: worldBox(), PageCapacity: c.capacity, PageFormat: storage.PageFormatV2}); err != nil {
			t.Fatalf("capacity %d rejected under v2: %v", c.capacity, err)
		}
		cp = append([]geom.Element(nil), c.els...)
		if _, err := Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp,
			Options{World: worldBox(), PageCapacity: c.capacity + 1, PageFormat: storage.PageFormatV2}); err == nil {
			t.Fatalf("capacity %d accepted under v2", c.capacity+1)
		}
	}
	cp = append([]geom.Element(nil), els...)
	if _, err := Build(storage.NewConcurrentPool(storage.NewMemPager(), 0), cp,
		Options{World: worldBox(), PageFormat: storage.PageFormat(9)}); err == nil {
		t.Fatal("unknown page format accepted")
	}
}

// TestPersistV2RoundTrip persists a v2 index, reopens it through its
// mapping, and verifies the format tag survives and queries stay
// correct over the zero-copy frame path.
func TestPersistV2RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index_v2.flat")
	r := rand.New(rand.NewSource(431))
	els := randomElements(r, 3000, worldBox())
	orig := make([]geom.Element, len(els))
	copy(orig, els)

	mem := storage.NewMemPager()
	pool := storage.NewConcurrentPool(mem, 0)
	ix, err := Build(pool, els, Options{World: worldBox(), PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteSuper(); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	q := geom.CubeAt(geom.V(40, 40, 40), 18)
	want := bruteForce(orig, q)

	// MmapPager reopen: same index, zero-copy reads.
	mp, err := storage.OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	pool3 := storage.NewConcurrentPool(mp, 0)
	ix3, err := openLast(pool3)
	if err != nil {
		t.Fatal(err)
	}
	if ix3.PageFormat() != storage.PageFormatV2 {
		t.Fatalf("mmap format = %v", ix3.PageFormat())
	}
	got3, stats3, err := ix3.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(got3), want) {
		t.Fatal("mmap reopen query wrong")
	}
	if stats3.TotalReads == 0 {
		t.Error("mmap reads were not counted")
	}
	if stats3.Reads.Reads[storage.CatObject] == 0 || stats3.Reads.Reads[storage.CatMetadata] == 0 {
		t.Errorf("reopened stats lack categories: %+v", stats3)
	}
}

// TestSuperblockVersionPerFormat pins the compatibility rule: v1 builds
// keep writing superblock version 1 (byte-compatible with pre-v2
// files), v2 builds write version 2 plus the format tag.
func TestSuperblockVersionPerFormat(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		format      storage.PageFormat
		wantVersion uint32
	}{
		{storage.PageFormatV1, superVersionV1},
		{0, superVersionV1},
		{storage.PageFormatV2, superVersionV2},
	} {
		els := randomElements(r, 300, worldBox())
		pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
		ix, err := Build(pool, els, Options{World: worldBox(), PageFormat: tc.format})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.WriteSuper(); err != nil {
			t.Fatal(err)
		}
		super := storage.PageID(pool.Pager().NumPages() - 1)
		page, err := pool.ReadInto(super, nil)
		if err != nil {
			t.Fatal(err)
		}
		pr := storage.NewPageReader(page)
		if magic := pr.U32(); magic != superMagic {
			t.Fatalf("format %v: magic %#x", tc.format, magic)
		}
		if v := pr.U32(); v != tc.wantVersion {
			t.Fatalf("format %v: superblock version %d, want %d", tc.format, v, tc.wantVersion)
		}
	}
}

// TestOpenRejectsUnknownFormats covers the failure paths of the v2
// superblock: bad version, bad format byte.
func TestOpenRejectsUnknownFormats(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	els := randomElements(r, 300, worldBox())
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	ix, err := Build(pool, els, Options{World: worldBox(), PageFormat: storage.PageFormatV2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteSuper(); err != nil {
		t.Fatal(err)
	}
	super := storage.PageID(pool.Pager().NumPages() - 1)
	page, err := pool.ReadInto(super, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), page...)

	// Corrupt the version field.
	bad := append([]byte(nil), buf...)
	bad[4] = 99
	if err := pool.Write(super, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := openLast(pool); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}

	// Corrupt the format byte (last written field of the v2 layout).
	bad = append([]byte(nil), buf...)
	bad[superFormatOffset] = 77
	if err := pool.Write(super, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := openLast(pool); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("bad format: %v", err)
	}
}
