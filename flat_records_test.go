package flat

import (
	"math/rand"
	"testing"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

// TestRecordsInvariants checks the structural invariants of every
// shard's metadata records at K=4: each record is enumerated once and
// every object page is described by exactly one record across the
// index, the records number the index's partitions, no page MBR escapes
// the index's world, and every neighbor ref resolves to a record of the
// same shard (overflow chains are spliced in, so neighbor lists are
// complete). Per shard it checks what the metadata pages' rounding must
// keep: every neighbor's stored box contains that neighbor's decoded
// partition MBR, decoded page ⊆ decoded partition ⊆ the shard's world,
// the decoded boxes contain the exact bound of the elements on the
// object page (the page MBR Build derived), and each seed key contains
// its records' decoded page MBRs.
func TestRecordsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	els := randomElements(r, 3000)
	ix, err := Build(els, &Options{Shards: 4, pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	refs := make(map[core.RecordRef]bool)
	objects := make(map[storage.PageID]bool)
	neighborLinks := 0
	for s := 0; s < ix.NumShards(); s++ {
		shard := ix.set.Shard(s)
		partitions := map[core.RecordRef]MBR{}
		var records []core.Record
		err := shard.Records(func(rc core.Record) error {
			if refs[rc.Ref] {
				t.Fatalf("record %v enumerated twice", rc.Ref)
			}
			refs[rc.Ref] = true
			if objects[rc.ObjectPage] {
				t.Fatalf("object page %d described by two records", rc.ObjectPage)
			}
			objects[rc.ObjectPage] = true
			if !ix.set.World().Contains(rc.PageMBR) {
				t.Fatalf("record %v: page MBR escapes the world", rc.Ref)
			}
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
			page, err := shard.Pool().ReadInto(rc.ObjectPage, nil)
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
				part, ok := partitions[n]
				if !ok {
					t.Fatalf("shard %d record %v: neighbor ref %v does not resolve to a record of the shard", s, rc.Ref, n)
				}
				if !rc.NeighborBoxes[j].Contains(part) {
					t.Fatalf("shard %d record %v: box %v of neighbor %v does not contain its partition %v", s, rc.Ref, rc.NeighborBoxes[j], n, part)
				}
				neighborLinks++
			}
		}
	}
	if len(refs) != ix.NumPartitions() {
		t.Fatalf("enumerated %d records, index has %d partitions", len(refs), ix.NumPartitions())
	}
	if neighborLinks == 0 {
		t.Fatal("no neighbor links at all — crawl graph would be disconnected")
	}
}

// TestCrawlFromAnyStart checks the paper's claim that the start page
// affects neither accuracy nor efficiency, through the index Build
// returns: every record whose partition meets the query is a valid
// crawl start, and each crawl returns exactly RangeQuery's result.
func TestCrawlFromAnyStart(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	els := randomElements(r, 2500)
	ix, err := Build(els, &Options{pageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	sh := ix.set.Shard(0)

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
		err = sh.Records(func(rc core.Record) error {
			if !rc.PartitionMBR.Intersects(q) {
				return nil
			}
			starts++
			got, err := sh.CrawlFrom(q, rc.Ref)
			if err != nil {
				return err
			}
			if !sameIDs(idsOf(got), wantIDs) {
				t.Fatalf("query %d: crawl from %v returned %d results, RangeQuery %d",
					qi, rc.Ref, len(got), len(want))
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
