package core

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"strings"
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

	// Build in memory, write the superblock, then the page file.
	mem := storage.NewMemPager()
	pool := storage.NewConcurrentPool(mem, 0)
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
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Reopen and compare.
	mp, err := storage.OpenMmapPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	pool2 := storage.NewConcurrentPool(mp, 0)
	ix2, err := openLast(pool2)
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
	if stats.Reads.Reads[storage.CatObject] == 0 || stats.Reads.Reads[storage.CatMetadata] == 0 {
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

// openLast opens the index whose superblock is the pager's last page,
// where WriteSuper leaves it on a single-index pager.
func openLast(pool storage.Pool) (*Index, error) {
	return OpenFrom(pool, storage.PageID(pool.Pager().NumPages()-1))
}

func TestOpenErrors(t *testing.T) {
	// Pager without a superblock (just a data page).
	p := storage.NewMemPager()
	pool := storage.NewConcurrentPool(p, 0)
	if _, err := pool.Alloc(storage.CatObject); err != nil {
		t.Fatal(err)
	}
	if _, err := openLast(pool); err != ErrNoSuper {
		t.Errorf("no super: %v", err)
	}

	// A superblock whose page runs do not end at its own page. These
	// used to open: the counts were never compared with the pager, and
	// the category loop ran once per claimed page.
	pool, super, good := superblockFixture(t)
	fullPage := storage.ObjectPageCapacityForSpan(storage.PageFormatV2, 0)
	for name, bad := range map[string][]byte{
		"2e8 object pages":         corruptSuper(good, superObjectPagesOffset, 0x00, 0xc2, 0xeb, 0x0b),
		"no object pages":          corruptSuper(good, superObjectPagesOffset, 0, 0, 0, 0),
		"2^32-1 metadata pages":    corruptSuper(good, superObjectPagesOffset+4, 0xff, 0xff, 0xff, 0xff),
		"2^32-1 seed pages":        corruptSuper(good, superObjectPagesOffset+8, 0xff, 0xff, 0xff, 0xff),
		"object run starts late":   corruptSuper(good, superObjectPagesOffset-8, 1),
		"object run past the file": corruptSuper(good, superObjectPagesOffset-8, 0, 0, 0, 0, 1),
		// The element count sizes Elements' slice: these made Len()
		// negative or Elements() panic in makeslice.
		"2^62 elements":                 corruptSuper(good, superCountOffset, le64(1<<62)...),
		"2^63+5 elements":               corruptSuper(good, superCountOffset, le64(1<<63+5)...),
		"fewer elements than pages":     corruptSuper(good, superCountOffset, le64(49)...),
		"more elements than pages hold": corruptSuper(good, superCountOffset, le64(50*uint64(fullPage)+1)...),
		"partitions differ from pages":  corruptSuper(good, superObjectPagesOffset+12, 51, 0, 0, 0),
	} {
		if err := pool.Write(super, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := openLast(pool); err == nil || !strings.Contains(err.Error(), "corrupt superblock") {
			t.Errorf("%s: Open = %v, want a corrupt-superblock error", name, err)
		}
	}
	// The fixture's 50 pages hold 50 to 50 full pages of elements.
	for _, n := range []uint64{50, 50 * uint64(fullPage)} {
		if err := pool.Write(super, corruptSuper(good, superCountOffset, le64(n)...)); err != nil {
			t.Fatal(err)
		}
		if _, err := openLast(pool); err != nil {
			t.Errorf("%d elements on 50 pages: %v", n, err)
		}
	}
	if err := pool.Write(super, good); err != nil {
		t.Fatal(err)
	}
	if _, err := openLast(pool); err != nil {
		t.Errorf("restored superblock: %v", err)
	}
}

// superObjectPagesOffset is where the three page counts start in the
// superblock, followed by the partition count; objStart is the u64
// before them, and the element count the u64 before that.
const (
	superObjectPagesOffset = superFormatOffset - 16
	superCountOffset       = superObjectPagesOffset - 16
)

// superblockFixture builds a small index of 400 elements on 50 v2
// object pages, with a superblock, on a shard view (a CategorySetter,
// so Open runs its category loop) and returns its pool, the
// superblock's page id and its bytes.
func superblockFixture(t testing.TB) (*storage.ConcurrentPool, storage.PageID, []byte) {
	t.Helper()
	view, err := storage.NewShardView(storage.NewMemPager(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewConcurrentPool(view, 0)
	els := randomElements(rand.New(rand.NewSource(271)), 400, worldBox())
	ix, err := Build(pool, els, Options{World: worldBox(), PageCapacity: 8, PageFormat: storage.PageFormatV2})
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
	return pool, super, append([]byte(nil), page...)
}

func le64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func corruptSuper(good []byte, off int, b ...byte) []byte {
	bad := append([]byte(nil), good...)
	copy(bad[off:], b)
	return bad
}

// FuzzOpenSuperblock mutates a real superblock: whatever the bytes say,
// Open returns an index or an error without panicking, and without doing
// more work than the pager has pages — the fixture has a few dozen, so
// a superblock that talks Open into a loop over 2^32 claimed pages
// shows up as a timeout. An index Open accepts also enumerates
// (Elements, Rebuild's extraction) without panicking.
func FuzzOpenSuperblock(f *testing.F) {
	pool, super, good := superblockFixture(f)
	pages := pool.Pager().NumPages()
	f.Add(good)
	f.Add(corruptSuper(good, superObjectPagesOffset, 0xff, 0xff, 0xff, 0xff))
	f.Add(good[:superFormatOffset])
	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, storage.PageSize)
		copy(page, data)
		if err := pool.Write(super, page); err != nil {
			t.Fatal(err)
		}
		ix, err := openLast(pool)
		if err != nil {
			return
		}
		if object, metadata, seed := ix.PageCounts(); uint64(object+metadata+seed) >= pages {
			t.Fatalf("accepted %d+%d+%d pages on a %d-page pager", object, metadata, seed, pages)
		}
		ix.Elements()
	})
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
	ix2, err := openLast(pool)
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
