// Quickstart: build a FLAT index over a handful of boxes and run range,
// count and point queries, printing the page-read statistics that are
// FLAT's cost model.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"flat"
)

func main() {
	// A deterministic toy data set: 10,000 small boxes in a 100³ world.
	r := rand.New(rand.NewSource(42))
	els := make([]flat.Element, 10000)
	for i := range els {
		center := flat.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		els[i] = flat.Element{
			ID:  uint64(i),
			Box: flat.CubeAt(center, 0.5+r.Float64()),
		}
	}

	// Build. FLAT is bulkloaded: the whole data set is indexed at once
	// (the paper's brain models change rarely and in batches).
	ix, err := flat.Build(els, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	fmt.Println(ix)

	// A range query returns every element whose bounding box intersects
	// the query box, plus the cost of answering it in 4 KiB page reads.
	q := flat.Box(flat.V(20, 20, 20), flat.V(35, 30, 28))
	hits, stats, err := ix.RangeQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query %v:\n  %d elements\n", q, len(hits))
	fmt.Printf("  %d page reads: %d seed + %d metadata + %d object\n",
		stats.TotalReads, stats.SeedReads, stats.MetadataReads, stats.ObjectReads)

	// CountQuery has the same I/O pattern without materializing results.
	ix.DropCache() // start cold again, like the paper's methodology
	n, stats2, err := ix.CountQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("count query: %d elements, %d page reads\n", n, stats2.TotalReads)

	// Point queries are degenerate range queries.
	p := els[7].Box.Center()
	at, _, err := ix.PointQuery(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point query at %v: %d elements\n", p, len(at))

	// Query sessions stream results instead of materializing them: the
	// crawl reads pages only as the loop consumes elements, a context
	// cancels it mid-flight, and WithLimit stops it early — here the
	// first 5 elements cost a fraction of the full query's page reads.
	ix.DropCache()
	session := ix.Query(context.Background(), q, flat.WithLimit(5))
	for el, err := range session.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  streamed element %d %v\n", el.ID, el.Box)
	}
	fmt.Printf("limited session: %d page reads (full query cost %d)\n",
		session.Stats().TotalReads, stats.TotalReads)

	// Choosing Shards: the same data split into 4 spatial shards, built
	// in parallel behind one MBR directory. It is the same type and the
	// same query code; only the option differs.
	ix4, err := flat.Build(els, &flat.Options{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer ix4.Close()
	fmt.Println(ix4)
	for _, x := range []*flat.Index{ix, ix4} {
		n, st, err := x.CountQuery(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d shard(s): %d elements, %d page reads\n", x.NumShards(), n, st.TotalReads)
	}
}
