package core

import (
	"math/rand"
	"testing"

	"flat/internal/geom"
	"flat/internal/storage"
)

// buildGiantFixture builds an index over a data set containing a few
// near-world-spanning fibers, with tiny pages so that the fibers'
// partitions get neighbor lists far beyond a single metadata record.
func buildGiantFixture(t *testing.T) (*Index, []geom.Element) {
	t.Helper()
	r := rand.New(rand.NewSource(211))
	world := worldBox()
	els := randomElements(r, 20000, world)
	for i := 0; i < 8; i++ {
		a := geom.V(r.Float64()*5, r.Float64()*100, r.Float64()*100)
		b := geom.V(95+r.Float64()*5, r.Float64()*100, r.Float64()*100)
		els = append(els, geom.Element{ID: uint64(20000 + i), Box: geom.Box(a, b).Expand(0.2)})
	}
	pool := storage.NewConcurrentPool(storage.NewMemPager(), 0)
	cp := make([]geom.Element, len(els))
	copy(cp, els)
	ix, err := Build(pool, cp, Options{World: world, PageCapacity: 8, SeedFanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	return ix, els
}

// TestGiantElementsBuildAndQuery verifies that extremely elongated
// elements — which stretch one partition's MBR across hundreds of cells
// and would overflow its metadata record — still produce a correct
// index: the oversized neighbor list continues in chained overflow
// records and queries continue to match brute force.
func TestGiantElementsBuildAndQuery(t *testing.T) {
	ix, els := buildGiantFixture(t)
	if ix.BuildStats().OverflowRecords == 0 {
		t.Fatal("test geometry did not trigger overflow records; tighten it")
	}
	r := rand.New(rand.NewSource(227))
	for i := 0; i < 40; i++ {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		q := geom.CubeAt(c, 1+r.Float64()*20)
		got, _, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(els, q)
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("query %v: got %d, want %d elements", q, len(got), len(want))
		}
	}
}

// TestOverflowChainInvariants: Records reassembles the full neighbor
// list across the chain; every record that is enumerated is a primary
// (owns an object page); the primary count equals the partition count.
func TestOverflowChainInvariants(t *testing.T) {
	ix, _ := buildGiantFixture(t)
	count := 0
	sawLong := false
	err := ix.Records(func(r Record) error {
		count++
		if r.ObjectPage == storage.InvalidPage {
			t.Fatal("Records enumerated an overflow record")
		}
		if len(r.Neighbors) > maxInlineNeighbors(minRefWidth) {
			sawLong = true
		}
		if len(r.NeighborBoxes) != len(r.Neighbors) {
			t.Fatalf("record %v: %d neighbor boxes for %d neighbors", r.Ref, len(r.NeighborBoxes), len(r.Neighbors))
		}
		seen := map[RecordRef]bool{}
		for _, n := range r.Neighbors {
			if seen[n] {
				t.Fatalf("record %v lists neighbor %v twice", r.Ref, n)
			}
			seen[n] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != ix.NumPartitions() {
		t.Fatalf("enumerated %d records, want %d", count, ix.NumPartitions())
	}
	if !sawLong {
		t.Fatal("expected at least one reassembled neighbor list beyond the inline cap")
	}
}

// TestSeedStartInvarianceWithOverflow: crawling from any candidate seed
// still yields the same result, even when giant partitions are part of
// the reachable graph.
func TestSeedStartInvarianceWithOverflow(t *testing.T) {
	ix, els := buildGiantFixture(t)
	q := geom.CubeAt(geom.V(50, 50, 50), 12)
	want := bruteForce(els, q)
	if len(want) == 0 {
		t.Fatal("query must be non-empty")
	}
	var starts []RecordRef
	err := ix.Records(func(r Record) error {
		if r.PageMBR.Intersects(q) {
			starts = append(starts, r.Ref)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("want several candidate starts, got %d", len(starts))
	}
	for _, s := range starts {
		got, err := ix.CrawlFrom(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("crawl from %v: got %d, want %d", s, len(got), len(want))
		}
	}
}
