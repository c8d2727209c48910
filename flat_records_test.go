package flat

import (
	"math/rand"
	"strings"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

// TestRecordsInvariants checks the structural invariants of the public
// Records enumeration at K=4: every record's partition MBR contains its
// page MBR, every object page is described by exactly one record, and
// every neighbor ref resolves to an enumerated record (overflow chains
// are spliced in, so neighbor lists are complete). Per shard it checks
// what the metadata pages' rounding must keep: every neighbor's stored
// box contains that neighbor's decoded partition MBR, decoded page ⊆
// decoded partition ⊆ the shard's world, the decoded boxes contain the
// exact bound of the elements on the object page (the page MBR Build
// derived), and each seed key contains its records' decoded page MBRs.
func TestRecordsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	els := randomElements(r, 3000)
	ix, err := Build(els, &Options{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	refs := make(map[RecordRef]bool)
	objects := make(map[PageID]bool)
	type rec struct {
		neighbors []RecordRef
	}
	var all []rec
	err = ix.Records(func(ref RecordRef, pageMBR, partMBR MBR, obj PageID, nb []RecordRef) error {
		if refs[ref] {
			t.Fatalf("record %v enumerated twice", ref)
		}
		refs[ref] = true
		if objects[obj] {
			t.Fatalf("object page %d described by two records", obj)
		}
		objects[obj] = true
		if !partMBR.Contains(pageMBR) {
			t.Fatalf("record %v: partition MBR %v does not contain page MBR %v", ref, partMBR, pageMBR)
		}
		if !ix.World().Contains(pageMBR) {
			t.Fatalf("record %v: page MBR escapes the world", ref)
		}
		all = append(all, rec{neighbors: append([]RecordRef(nil), nb...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != ix.NumPartitions() {
		t.Fatalf("enumerated %d records, index has %d partitions", len(all), ix.NumPartitions())
	}
	neighborLinks := 0
	for _, rc := range all {
		for _, n := range rc.neighbors {
			if !refs[n] {
				t.Fatalf("neighbor ref %v does not resolve to an enumerated record", n)
			}
			neighborLinks++
		}
	}
	if neighborLinks == 0 {
		t.Fatal("no neighbor links at all — crawl graph would be disconnected")
	}

	for s := 0; s < ix.NumShards(); s++ {
		shard := ix.set.Shard(s)
		partitions := map[RecordRef]MBR{}
		var records []core.Record
		err := shard.Records(func(rc core.Record) error {
			partitions[rc.Ref] = rc.PartitionMBR
			records = append(records, rc)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range records {
			if !rc.PartitionMBR.Contains(rc.PageMBR) || !shard.World().Contains(rc.PartitionMBR) {
				t.Fatalf("shard %d record %v: page %v ⊆ partition %v ⊆ world %v does not hold", s, rc.Ref, rc.PageMBR, rc.PartitionMBR, shard.World())
			}
			if !rc.SeedKey.Contains(rc.PageMBR) {
				t.Fatalf("shard %d record %v: seed key %v does not contain page MBR %v", s, rc.Ref, rc.SeedKey, rc.PageMBR)
			}
			page, err := shard.Pool().Read(rc.ObjectPage)
			if err != nil {
				t.Fatal(err)
			}
			onPage, err := storage.DecodeObjectPageInto(page, nil)
			if err != nil {
				t.Fatal(err)
			}
			if built := geom.ElementsMBR(onPage); !rc.PageMBR.Contains(built) || !rc.PartitionMBR.Contains(built) {
				t.Fatalf("shard %d record %v: page %v / partition %v do not contain the page's elements %v", s, rc.Ref, rc.PageMBR, rc.PartitionMBR, built)
			}
			if len(rc.NeighborBoxes) != len(rc.Neighbors) {
				t.Fatalf("shard %d record %v: %d boxes for %d neighbors", s, rc.Ref, len(rc.NeighborBoxes), len(rc.Neighbors))
			}
			for j, n := range rc.Neighbors {
				if part, ok := partitions[n]; !ok || !rc.NeighborBoxes[j].Contains(part) {
					t.Fatalf("shard %d record %v: box %v of neighbor %v does not contain its partition %v", s, rc.Ref, rc.NeighborBoxes[j], n, part)
				}
			}
		}
	}
}

// TestCrawlFromAnyStart verifies the paper's claim behind CrawlFrom:
// starting the crawl phase from any record whose partition intersects
// the query yields exactly the RangeQuery result set.
func TestCrawlFromAnyStart(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	els := randomElements(r, 2500)
	ix, err := Build(els, &Options{PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	for qi, q := range queryWorkload(r, 5) {
		want, _, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			continue
		}
		wantIDs := idsOf(want)
		// Try every record intersecting the query as a crawl start.
		starts := 0
		err = ix.Records(func(ref RecordRef, pageMBR, partMBR MBR, obj PageID, nb []RecordRef) error {
			if !partMBR.Intersects(q) {
				return nil
			}
			starts++
			got, err := ix.CrawlFrom(q, ref)
			if err != nil {
				return err
			}
			if !sameIDs(idsOf(got), wantIDs) {
				t.Fatalf("query %d: crawl from %v returned %d results, RangeQuery %d",
					qi, ref, len(got), len(want))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if starts == 0 {
			t.Fatalf("query %d: no intersecting start records despite %d results", qi, len(want))
		}
	}
}

// TestCrawlFromAcrossShards carries the start-page claim to K=4: every
// ref Records yields is a valid CrawlFrom start; a crawl stays inside
// the shard that owns its start, so the union over all starts is the
// RangeQuery result set; and a ref naming no shard of the index is an
// error, not an index panic.
func TestCrawlFromAcrossShards(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ix, err := Build(randomElements(r, 2500), &Options{Shards: 4, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	q := CubeAt(V(50, 50, 50), 60)
	want, _, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := idsOf(want)
	owners := make(map[int]bool) // shards whose records were enumerated
	union := make(map[uint64]bool)
	records := 0
	err = ix.Records(func(ref RecordRef, _, _ MBR, _ PageID, _ []RecordRef) error {
		records++
		s, _ := storage.SplitShardPageID(ref.Page())
		owners[s] = true
		got, err := ix.CrawlFrom(q, ref)
		if err != nil {
			return err
		}
		for _, e := range got {
			if !e.Box.Intersects(q) || !ix.ShardBounds(s).Contains(e.Box) {
				t.Fatalf("crawl from %v (shard %d) returned %v: outside the query or the shard", ref, s, e)
			}
			union[e.ID] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != ix.NumPartitions() || len(owners) != ix.NumShards() {
		t.Fatalf("enumerated %d records over %d shards, index has %d partitions in %d shards",
			records, len(owners), ix.NumPartitions(), ix.NumShards())
	}
	if len(wantIDs) == 0 || len(union) != len(wantIDs) {
		t.Fatalf("union over all starts holds %d elements, RangeQuery %d", len(union), len(wantIDs))
	}
	for _, id := range wantIDs {
		if !union[id] {
			t.Fatalf("element %d is in RangeQuery but in no crawl", id)
		}
	}

	stray := RecordRef(uint64(storage.ShardPageID(ix.NumShards(), 0)) << 16)
	if _, err := ix.CrawlFrom(q, stray); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Errorf("CrawlFrom(%v) on a %d-shard index: %v, want an error naming the shard", stray, ix.NumShards(), err)
	}
}
