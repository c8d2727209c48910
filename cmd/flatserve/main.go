// Command flatserve serves a built FLAT index over TCP — the network
// face of the library: streaming range/count queries with limits,
// staged writes against the index's WAL-backed delta, rebuilds, and an admin/stats endpoint. The protocol is the
// length-prefixed binary framing of flat/internal/serve; see the
// README's "Serving" section for the frame layout.
//
// Server mode (-index):
//
//	flatserve -index brain.idx -addr :4077
//
// The index directory is memory-mapped by default (-mmap=false for file
// reads) and opened with its write-ahead log so staged writes are
// durable (-wal=false to opt out). SIGINT/SIGTERM
// trigger a graceful drain: the listener closes, new queries are
// refused, in-flight streams get -drain to finish before they are
// cancelled, the WAL is flushed and the index closed.
//
// One-shot client mode (no -index): the same binary queries a running
// server, which keeps the wire protocol exercisable from a shell:
//
//	flatserve -addr :4077 -query "1,2,3,8,9,10" -limit 100
//	flatserve -addr :4077 -query "1,2,3,8,9,10" -count
//	flatserve -addr :4077 -point "5,5,5"
//	flatserve -addr :4077 -nn "5,5,5" -k 20
//	flatserve -addr :4077 -insert delta.flte
//	flatserve -addr :4077 -delete "17,1,2,3,4,5,6"
//	flatserve -addr :4077 -flush
//	flatserve -addr :4077 -rebuild
//	flatserve -addr :4077 -stats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flat"
	"flat/internal/datagen"
	"flat/internal/serve"
)

func main() {
	var (
		index = flag.String("index", "", "index directory to serve (server mode)")
		addr  = flag.String("addr", ":4077", "listen address (server mode) or server address (client mode)")

		mmapF    = flag.Bool("mmap", true, "serve the index through a read-only memory mapping")
		wal      = flag.Bool("wal", true, "write-ahead-log staged updates")
		inflight = flag.Int("max-inflight", 0, "global concurrent-query budget; the N+1th query is rejected busy (0: default 64)")
		connq    = flag.Int("conn-queries", 0, "concurrent queries allowed per connection (0: default 16)")
		batch    = flag.Int("batch", 0, "elements per streamed result frame (0: default 128; at most 149796, larger values are clamped)")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown grace period for in-flight queries")

		query   = flag.String("query", "", "client: range query 'x1,y1,z1,x2,y2,z2'")
		point   = flag.String("point", "", "client: point query 'x,y,z'")
		nn      = flag.String("nn", "", "client: k-nearest-neighbor query point 'x,y,z'; results stream in nondecreasing distance")
		kNN     = flag.Int("k", 10, "client: result count for -nn (0: stream the whole index in distance order)")
		count   = flag.Bool("count", false, "client: count instead of streaming the elements")
		limit   = flag.Int("limit", 0, "client: stop the query after this many results (0: unlimited)")
		cancelN = flag.Int("cancel-after", 0, "client: cancel the stream after this many results (exercises the wire cancel)")
		insert  = flag.String("insert", "", "client: element file whose contents are staged for insertion")
		del     = flag.String("delete", "", "client: stage one deletion, 'id,x1,y1,z1,x2,y2,z2'")
		flush   = flag.Bool("flush", false, "client: flush the server's write-ahead log")
		rebuild = flag.Bool("rebuild", false, "client: fold staged updates into the bulkloaded shards")
		stats   = flag.Bool("stats", false, "client: print the server's stats as JSON")
	)
	flag.Parse()

	if *index != "" {
		runServer(*index, *addr, *mmapF, *wal, serve.Config{
			MaxInflight:    *inflight,
			MaxConnQueries: *connq,
			StreamBatch:    *batch,
			DrainTimeout:   *drain,
		})
		return
	}
	runClient(*addr, clientOps{
		query: *query, point: *point, count: *count,
		nn: *nn, k: *kNN,
		limit: *limit, cancelAfter: *cancelN,
		insert: *insert, del: *del,
		flush: *flush, rebuild: *rebuild, stats: *stats,
	})
}

func runServer(index, addr string, mmap, wal bool, cfg serve.Config) {
	ix, err := flat.Open(index, &flat.Options{Mmap: mmap, WAL: wal})
	if err != nil {
		fatalf("open %s: %v", index, err)
	}
	if st, err := ix.DeltaStats(); err == nil && (st.Inserts > 0 || st.Deletes > 0) {
		fmt.Printf("flatserve: replayed write-ahead log: %d staged inserts, %d staged deletes pending\n",
			st.Inserts, st.Deletes)
	}

	s := serve.NewServer(ix, cfg)
	if err := s.Listen(addr); err != nil {
		fatalf("listen %s: %v", addr, err)
	}
	fmt.Printf("flatserve: serving %s on %s\n", index, s.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	select {
	case sig := <-sigc:
		fmt.Printf("flatserve: %v: draining (grace %v)\n", sig, cfg.DrainTimeout)
	case err := <-serveErr:
		if err != nil {
			fatalf("serve: %v", err)
		}
		return
	}
	s.Shutdown()
	// Anything acknowledged is already logged; one last flush covers
	// updates staged through other paths before the index closes.
	if err := ix.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "flatserve: final wal flush: %v\n", err)
	}
	if err := ix.Close(); err != nil {
		fatalf("close index: %v", err)
	}
	fmt.Println("flatserve: drained, index closed")
}

type clientOps struct {
	query, point string
	nn           string
	k            int
	count        bool
	limit        int
	cancelAfter  int
	insert, del  string
	flush        bool
	rebuild      bool
	stats        bool
}

func runClient(addr string, ops clientOps) {
	if ops.query == "" && ops.point == "" && ops.nn == "" && ops.insert == "" && ops.del == "" &&
		!ops.flush && !ops.rebuild && !ops.stats {
		fatalf("nothing to do: pass -index to serve, or a client operation (-query, -point, -nn, -insert, -delete, -flush, -rebuild, -stats); see -help")
	}
	c, err := serve.Dial(addr)
	if err != nil {
		fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	ctx := context.Background()

	if ops.insert != "" {
		els, err := datagen.LoadElements(ops.insert)
		if err != nil {
			fatalf("load %s: %v", ops.insert, err)
		}
		if err := c.Insert(ctx, els); err != nil {
			fatalf("insert: %v", err)
		}
		fmt.Printf("staged %d inserts (wal flushed)\n", len(els))
	}
	if ops.del != "" {
		id, box, err := parseDelete(ops.del)
		if err != nil {
			fatalf("bad -delete: %v", err)
		}
		if err := c.Delete(ctx, id, box); err != nil {
			fatalf("delete: %v", err)
		}
		fmt.Printf("staged delete of element %d (wal flushed)\n", id)
	}
	if ops.flush {
		if err := c.Flush(ctx); err != nil {
			fatalf("flush: %v", err)
		}
		fmt.Println("write-ahead log flushed")
	}
	if ops.rebuild {
		n, err := c.Rebuild(ctx)
		if err != nil {
			fatalf("rebuild: %v", err)
		}
		fmt.Printf("rebuilt %d shards\n", n)
	}

	var q flat.MBR
	haveQuery := false
	switch {
	case ops.query != "":
		co, err := parseFloats(ops.query, 6)
		if err != nil {
			fatalf("bad -query: %v", err)
		}
		q = flat.Box(flat.V(co[0], co[1], co[2]), flat.V(co[3], co[4], co[5]))
		haveQuery = true
	case ops.point != "":
		co, err := parseFloats(ops.point, 3)
		if err != nil {
			fatalf("bad -point: %v", err)
		}
		p := flat.V(co[0], co[1], co[2])
		q = flat.Box(p, p)
		haveQuery = true
	}
	if haveQuery {
		qo := serve.QueryOptions{Limit: ops.limit}
		if ops.count {
			n, st, err := c.Count(ctx, q, qo)
			if err != nil {
				fatalf("count: %v", err)
			}
			fmt.Printf("query %v: %d results\n", q, n)
			printQueryStats(st)
		} else {
			stream, err := c.Range(ctx, q, qo)
			if err != nil {
				fatalf("query: %v", err)
			}
			printStream("query", q, stream, ops.cancelAfter,
				func(e flat.Element) string { return fmt.Sprintf("element %d %v", e.ID, e.Box) },
				func(n int) string {
					if ops.limit > 0 && n == ops.limit {
						return fmt.Sprintf("stopped after %d results (-limit)", n)
					}
					return fmt.Sprintf("%d results", n)
				})
		}
	}

	if ops.nn != "" {
		co, err := parseFloats(ops.nn, 3)
		if err != nil {
			fatalf("bad -nn: %v", err)
		}
		p := flat.V(co[0], co[1], co[2])
		stream, err := c.NN(ctx, p, ops.k)
		if err != nil {
			fatalf("nn: %v", err)
		}
		// The distance never travels: the box carries full precision, so
		// the client recomputes it exactly.
		printStream("nn", p, stream, ops.cancelAfter,
			func(e flat.Element) string {
				return fmt.Sprintf("element %d dist %.4f %v", e.ID, e.Box.DistToPoint(p), e.Box)
			},
			func(n int) string { return fmt.Sprintf("%d nearest (k=%d)", n, ops.k) })
	}

	if ops.stats {
		st, err := c.Stats(ctx)
		if err != nil {
			fatalf("stats: %v", err)
		}
		blob, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			fatalf("stats: %v", err)
		}
		fmt.Println(string(blob))
	}
}

// printStream drains one result stream the way every streaming client
// operation reports it: the first ten elements (formatted by line), the
// -cancel-after early exit, then the summary and the page reads.
func printStream(kind string, arg any, stream *serve.Stream, cancelAfter int, line func(flat.Element) string, summary func(n int) string) {
	const maxPrint = 10
	n := 0
	for e, err := range stream.All() {
		if err != nil {
			fatalf("%s: %v", kind, err)
		}
		if n < maxPrint {
			fmt.Printf("  %s\n", line(e))
		} else if n == maxPrint {
			fmt.Printf("  ...\n")
		}
		n++
		// Leaving All() early sends the cancel frame and drains to the
		// server's terminator.
		if cancelAfter > 0 && n == cancelAfter {
			fmt.Printf("%s %v: cancelled after %d results (-cancel-after)\n", kind, arg, n)
			return
		}
	}
	fmt.Printf("%s %v: %s\n", kind, arg, summary(n))
	printQueryStats(stream.Stats())
}

func printQueryStats(st flat.QueryStats) {
	fmt.Printf("  page reads: %d total (%d seed + %d metadata + %d object)\n",
		st.TotalReads, st.SeedReads, st.MetadataReads, st.ObjectReads)
}

// parseDelete parses -delete's 'id,x1,y1,z1,x2,y2,z2'. The id is an
// opaque uint64 key and is parsed as one: through float64, ids above
// 2^53 would be rounded to a neighbour.
func parseDelete(s string) (uint64, flat.MBR, error) {
	idText, coords, _ := strings.Cut(s, ",")
	id, err := strconv.ParseUint(strings.TrimSpace(idText), 10, 64)
	if err != nil {
		return 0, flat.MBR{}, fmt.Errorf("element id: %w", err)
	}
	co, err := parseFloats(coords, 6)
	if err != nil {
		return 0, flat.MBR{}, err
	}
	return id, flat.Box(flat.V(co[0], co[1], co[2]), flat.V(co[3], co[4], co[5])), nil
}

func parseFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated numbers, got %d", n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flatserve: "+format+"\n", args...)
	os.Exit(1)
}
