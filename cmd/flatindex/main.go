// Command flatindex builds a FLAT index over a binary element file
// (produced by cmd/flatgen) and executes range queries against it,
// reporting the paper's cost metric: disk page reads, broken down into
// seed-tree, metadata and object pages.
//
// FLAT is a bulkloading index (the paper's models change rarely and in
// batches), so flatindex builds and queries in one invocation; pass
// -index to keep the index on disk, in a directory holding one page
// file per shard and a manifest, and to reopen it the next time.
//
// Usage:
//
//	flatindex -data brain.flte -query "1,2,3,8,9,10"
//	flatindex -data brain.flte -index brain.idx -stats
//	flatindex -data brain.flte -point "5,5,5"
//	flatindex -data brain.flte -nn "5,5,5" -k 20
//	flatindex -data brain.flte -compare -query "0,0,0,4,4,4"
//	flatindex -data brain.flte -shards 4 -index brain.shards -stats
//	flatindex -data brain.flte -shards 4 -index brain.shards -insert delta.flte -rebuild
//
// With -shards K the data is split into K spatial shards built in
// parallel behind one MBR directory; every path below is the same at
// any K, and a reopened directory's own shard count wins over the flag.
// Queries run as streaming sessions: -limit N
// stops the crawl after N results, and the reported page reads shrink
// accordingly (the paper's crawl cost is proportional to the result
// size, so bounding the results bounds the I/O).
//
// -nn "x,y,z" runs a k-nearest-neighbor query: the -k closest elements
// stream back in nondecreasing distance from the point (best-first
// traversal, so a small k reads far fewer pages than draining and
// sorting). -k 0 streams the entire index in distance order.
//
// The index accepts updates between bulkloads: -insert stages
// the elements of another element file, -delete stages removals by
// element id, and -rebuild folds the staged changes in by re-bulkloading
// only the shards they touch (each rebuilt shard writes a new
// generation of its page file; the manifest swap is atomic, so a crash
// mid-rebuild leaves the previous generation openable). Staged changes
// are visible to the -query/-point of the same invocation even without
// -rebuild. An index kept in memory (no -index) loses them at exit.
//
// An index directory keeps a write-ahead log: staged updates are
// appended to the log before they take effect and flushed before the
// invocation exits, so they survive a crash (or kill -9) without any
// -rebuild — the next invocation replays the log and reports the staged
// updates as pending again. A directory written without a log is given
// one when it is reopened.
//
// -pageformat v2 builds with the compressed object-page layout
// (quantized delta-encoded elements, 1.7-2x the density of v1); the
// format is stamped into the index file, so reopening never needs the
// flag and the on-disk format wins over it. An index in a directory is
// served through each shard file's read-only memory mapping, whether
// this invocation built it or reopened it. -stats reports the page
// format along with bytes-per-element and the packing ratio over v1, and
// the metadata pages' count, kind and records per page.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strconv"
	"strings"

	"flat"
	"flat/internal/datagen"
)

func main() {
	var (
		data    = flag.String("data", "", "binary element file (required)")
		index   = flag.String("index", "", "optional index directory; empty keeps the index in memory")
		query   = flag.String("query", "", "range query 'x1,y1,z1,x2,y2,z2'")
		point   = flag.String("point", "", "point query 'x,y,z'")
		nn      = flag.String("nn", "", "k-nearest-neighbor query point 'x,y,z'; results stream in nondecreasing distance")
		k       = flag.Int("k", 10, "result count for -nn (0: stream the whole index in distance order)")
		stats   = flag.Bool("stats", false, "print index statistics")
		compare = flag.Bool("compare", false, "also run the query on the three R-tree baselines")
		limit   = flag.Int("limit", 0, "stop the query after this many results (0: unlimited); the crawl aborts early, saving page reads")
		shards  = flag.Int("shards", 1, "number of spatial shards for a fresh build")
		insert  = flag.String("insert", "", "element file whose contents are staged for insertion")
		del     = flag.String("delete", "", "comma-separated element ids staged for deletion")
		rebuild = flag.Bool("rebuild", false, "fold staged updates in by re-bulkloading only the dirty shards")
		pf      = flag.String("pageformat", "v1", "object-page layout for a fresh build: v1 (full precision) or v2 (quantized delta-encoded, 1.7-2x denser); reopening reads the format from the index itself")
	)
	flag.Parse()
	if *data == "" {
		fatalf("-data is required")
	}
	format, err := parsePageFormat(*pf)
	if err != nil {
		fatalf("bad -pageformat: %v", err)
	}

	els, err := datagen.LoadElements(*data)
	if err != nil {
		fatalf("load %s: %v", *data, err)
	}
	fmt.Printf("loaded %d elements from %s\n", len(els), *data)

	// Reuse a previously built index directory when present; only a
	// missing one is built (and, with -index, persisted for the next
	// invocation) — a directory that is there but does not open is
	// reported, never overwritten.
	var ix *flat.Index
	if *index != "" {
		_, statErr := os.Stat(*index)
		if statErr != nil && !errors.Is(statErr, fs.ErrNotExist) {
			fatalf("%v", statErr)
		}
		if statErr == nil {
			if ix, err = flat.Open(*index, nil); err != nil {
				fatalf("open %s: %v (delete it to rebuild)", *index, err)
			}
			fmt.Printf("reopened existing index %s\n", *index)
			// The write-ahead log is replayed on open: say what survived
			// so a kill-and-reopen is visible from the outside.
			if st := ix.DeltaStats(); st.Inserts > 0 || st.Deletes > 0 {
				fmt.Printf("replayed write-ahead log: %d staged inserts, %d staged deletes pending\n",
					st.Inserts, st.Deletes)
			}
			// The on-disk shard count and page format win over flags the
			// caller passed; say so when they disagree rather than silently
			// serving the wrong thing.
			if flagWasSet("shards") && *shards != ix.NumShards() {
				fmt.Printf("warning: %s was built with %d shards; -shards %d ignored (delete it to rebuild)\n",
					*index, ix.NumShards(), *shards)
			}
			if flagWasSet("pageformat") {
				for s := 0; s < ix.NumShards(); s++ {
					if f := ix.ShardPageFormat(s); f != format {
						fmt.Printf("warning: shard %d of %s is %s; -pageformat %s ignored (delete it to rebuild)\n",
							s, *index, f, format)
						break
					}
				}
			}
		}
	}
	if ix == nil {
		cp := append([]flat.Element(nil), els...)
		if ix, err = flat.Build(cp, &flat.Options{Shards: *shards, Dir: *index, PageFormat: format}); err != nil {
			fatalf("build: %v", err)
		}
	}
	defer ix.Close()
	fmt.Println(ix)

	if *stats {
		fmt.Printf("  partitions:    %d\n", ix.NumPartitions())
		fmt.Printf("  bounds:        %v\n", ix.Bounds())
		fmt.Printf("  seed height:   %d\n", ix.SeedHeight())
		avg, err := ix.AvgNeighbors()
		if err != nil {
			fatalf("stats: %v", err)
		}
		fmt.Printf("  avg neighbors: %.1f\n", avg)
		_, meta, _ := ix.PageCounts()
		fmt.Printf("  metadata:      %d pages, %.1f records/page, %.1f bytes/record\n", meta,
			float64(ix.NumPartitions())/float64(meta), float64(meta*flat.PageSize)/float64(ix.NumPartitions()))
		mixed := false
		for s := 0; s < ix.NumShards(); s++ {
			f := ix.ShardPageFormat(s)
			mixed = mixed || f != ix.ShardPageFormat(0)
			fmt.Printf("  shard %d:      %v %s\n", s, ix.ShardBounds(s), f)
		}
		if mixed {
			// Generations built before a format change keep their old
			// layout until their next rebuild, so a set can be mixed.
			fmt.Printf("  page format:   mixed (per shard above)\n")
			fmt.Printf("  bytes/elem:    %.1f (whole index)\n", float64(ix.SizeBytes())/float64(ix.Len()))
		} else {
			printFormatStats(ix.ShardPageFormat(0), ix.SizeBytes(), ix.Len(), ix.NumPartitions())
		}
		st := ix.DeltaStats()
		fmt.Printf("  staged delta:  %d inserts, %d deletes", st.Inserts, st.Deletes)
		if st.WALBytes > 0 {
			fmt.Printf(", %d WAL bytes", st.WALBytes)
		}
		fmt.Println()
	}

	// Staged updates + incremental rebuild.
	if *insert != "" || *del != "" || *rebuild {
		stagedOps := 0
		// Deletes are resolved first, against the index contents as they
		// were before this invocation's -insert: staging follows
		// last-op-wins, so inserts staged after the deletes are never
		// doomed by them.
		if *del != "" {
			doomed := make(map[uint64]bool)
			for _, part := range strings.Split(*del, ",") {
				id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
				if err != nil {
					fatalf("bad -delete id %q: %v", part, err)
				}
				doomed[id] = true
			}
			// Resolve each id's box by scanning all of space (staged
			// inserts can lie outside Bounds until a Rebuild): StageDelete
			// identifies elements by their full (id, box) pair.
			inf := math.Inf(1)
			all, _, err := ix.RangeQuery(flat.Box(flat.V(-inf, -inf, -inf), flat.V(inf, inf, inf)))
			if err != nil {
				fatalf("scan for -delete: %v", err)
			}
			staged := 0
			for _, e := range all {
				if doomed[e.ID] {
					if err := ix.StageDelete(e.ID, e.Box); err != nil {
						fatalf("stage delete: %v", err)
					}
					staged++
				}
			}
			stagedOps += staged
			fmt.Printf("staged %d deletes for %d ids\n", staged, len(doomed))
		}
		if *insert != "" {
			add, err := datagen.LoadElements(*insert)
			if err != nil {
				fatalf("load %s: %v", *insert, err)
			}
			if err := ix.StageInsert(add...); err != nil {
				fatalf("stage insert: %v", err)
			}
			stagedOps += len(add)
			fmt.Printf("staged %d inserts from %s\n", len(add), *insert)
		}
		// Make the staged updates durable before exit: in a directory a
		// flush of its write-ahead log is all it takes (the next
		// invocation replays them); -rebuild below folds them into the
		// bulkloaded pages for good. Gate on what this invocation
		// actually staged (-insert may name an empty file).
		if stagedOps > 0 && *index != "" {
			if err := ix.Flush(); err != nil {
				fatalf("flush wal: %v", err)
			}
			fmt.Println("flushed write-ahead log: staged updates survive until the next rebuild")
		}
		if *rebuild {
			dirty := ix.DirtyShards()
			rebuilt, err := ix.Rebuild()
			if err != nil {
				fatalf("rebuild: %v", err)
			}
			fmt.Printf("rebuilt %d of %d shards %v (dirty: %v)\n", len(rebuilt), ix.NumShards(), rebuilt, dirty)
			for _, s := range rebuilt {
				fmt.Printf("  shard %d now generation %d, bounds %v\n", s, ix.ShardGeneration(s), ix.ShardBounds(s))
			}
		}
	}

	const maxPrint = 10

	// k-nearest-neighbor query: the -k closest elements stream back in
	// nondecreasing distance, and the page reads reflect the best-first
	// traversal's pruning — not a full drain's cost.
	if *nn != "" {
		c, err := datagen.ParseFloats(*nn, 3)
		if err != nil {
			fatalf("bad -nn: %v", err)
		}
		p := flat.V(c[0], c[1], c[2])
		session := ix.NN(context.Background(), p, *k)
		count := 0
		for e, err := range session.All() {
			if err != nil {
				fatalf("nn: %v", err)
			}
			if count < maxPrint {
				fmt.Printf("  element %d dist %.4f %v\n", e.ID, e.Box.DistToPoint(p), e.Box)
			} else if count == maxPrint {
				fmt.Printf("  ...\n")
			}
			count++
		}
		qs := session.Stats()
		fmt.Printf("nn %v: %d nearest (k=%d)\n", p, count, *k)
		fmt.Printf("  page reads: %d total (%v)\n", qs.TotalReads, qs.Reads)
	}

	var q flat.MBR
	haveQuery := false
	switch {
	case *query != "":
		c, err := datagen.ParseFloats(*query, 6)
		if err != nil {
			fatalf("bad -query: %v", err)
		}
		q = flat.Box(flat.V(c[0], c[1], c[2]), flat.V(c[3], c[4], c[5]))
		haveQuery = true
	case *point != "":
		c, err := datagen.ParseFloats(*point, 3)
		if err != nil {
			fatalf("bad -point: %v", err)
		}
		p := flat.V(c[0], c[1], c[2])
		q = flat.Box(p, p)
		haveQuery = true
	}
	if !haveQuery {
		return
	}

	// Execute through the streaming session path: with -limit the crawl
	// aborts as soon as enough results have been delivered, so the page
	// reads below reflect the work actually performed, not the full
	// result's cost.
	session := ix.Query(context.Background(), q, flat.WithLimit(*limit))
	count := 0
	for e, err := range session.All() {
		if err != nil {
			fatalf("query: %v", err)
		}
		if count < maxPrint {
			fmt.Printf("  element %d %v\n", e.ID, e.Box)
		} else if count == maxPrint {
			fmt.Printf("  ...\n")
		}
		count++
	}
	qs := session.Stats()
	if *limit > 0 && count == *limit {
		fmt.Printf("query %v: stopped after %d results (-limit)\n", q, count)
	} else {
		fmt.Printf("query %v: %d results\n", q, count)
	}
	fmt.Printf("  page reads: %d total (%v)\n", qs.TotalReads, qs.Reads)
	fmt.Printf("  crawl: %d records visited, %d object pages\n", qs.RecordsVisited, qs.PagesVisited)

	if *compare {
		if *limit > 0 {
			fmt.Printf("note: the R-tree baselines below run the full query; FLAT's numbers above stop at -limit %d\n", *limit)
		}
		for _, s := range []flat.RTreeStrategy{flat.RTreeHilbert, flat.RTreeSTR, flat.RTreePR} {
			cp := append([]flat.Element(nil), els...)
			tr, err := flat.BuildRTree(cp, s, nil)
			if err != nil {
				fatalf("build %v: %v", s, err)
			}
			rres, rs, err := tr.RangeQuery(q)
			if err != nil {
				fatalf("query %v: %v", s, err)
			}
			fmt.Printf("%-14s: %d results, %d page reads (%v)\n", s, len(rres), rs.TotalReads, rs.Reads)
			tr.Close()
		}
	}
}

func parsePageFormat(s string) (flat.PageFormat, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "v1", "1":
		return flat.PageFormatV1, nil
	case "v2", "2":
		return flat.PageFormatV2, nil
	}
	return 0, fmt.Errorf("want v1 or v2, got %q", s)
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// printFormatStats reports the codec-dependent stats lines: which
// layout the object pages use, the realized on-disk density, and how
// much denser the realized pages are than a full v1 page.
func printFormatStats(f flat.PageFormat, sizeBytes uint64, n, pages int) {
	perPage := float64(n) / float64(pages)
	fmt.Printf("  page format:   %s (%.1f elements/object page)\n", f, perPage)
	fmt.Printf("  bytes/elem:    %.1f (whole index)\n", float64(sizeBytes)/float64(n))
	fmt.Printf("  compression:   %.2fx elements per object page vs a full v1 page\n",
		perPage/float64(flat.ObjectPageCapacity(flat.PageFormatV1)))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flatindex: "+format+"\n", args...)
	os.Exit(1)
}
