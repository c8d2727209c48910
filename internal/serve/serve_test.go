package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flat"
	"flat/internal/datagen"
)

func testElements(n int, seed int64) []flat.Element {
	world := flat.Box(flat.V(0, 0, 0), flat.V(1000, 1000, 1000))
	return datagen.UniformBoxes(datagen.UniformSpec{N: n, World: world, ElementVolume: 18, Seed: seed})
}

// startServer wraps an index in a listening server and tears both the
// server (but not the index) down with the test.
func startServer(t testing.TB, ix *flat.Index, cfg Config) *Server {
	t.Helper()
	s := NewServer(ix, cfg)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(s.Shutdown)
	return s
}

func dialServer(t testing.TB, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// setSocketBuffers sizes the kernel socket buffers on the client end
// conn (and the server side of every open connection).
func setSocketBuffers(t *testing.T, s *Server, conn net.Conn, size int) {
	t.Helper()
	if err := conn.(*net.TCPConn).SetReadBuffer(size); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc := range s.conns {
		if err := sc.(*net.TCPConn).SetWriteBuffer(size); err != nil {
			t.Fatal(err)
		}
	}
}

// throttle shrinks the socket buffers of c's connection so TCP
// backpressure reaches the server's crawl after a few KiB instead of
// after megabytes of autotuned buffering. Tests that need a stream to
// stall mid-crawl call this right after dialing, before querying.
func throttle(t *testing.T, s *Server, c *Client) {
	t.Helper()
	setSocketBuffers(t, s, c.conn, 8192)
}

// unthrottle restores large socket buffers, and the receive window
// throttle clamped, after a test is done stalling, so draining the
// remaining stream is not throttled into delayed-ACK lockstep (a few
// KiB per 40 ms).
func unthrottle(t *testing.T, s *Server, c *Client) {
	t.Helper()
	setSocketBuffers(t, s, c.conn, 1<<20)
	liftWindowClamp(t, c.conn, 1<<20)
}

// frame encodes one wire frame for tests that speak the protocol raw.
func frame(typ byte, reqID uint32, body []byte) []byte {
	var buf bytes.Buffer
	if err := sendFrame(&buf, typ, append(newFrame(reqID, 0), body...)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// queryBody is a msgQuery body: kind, box, limit and the flags byte.
func queryBody(kind byte, box flat.MBR, limit uint32, flags byte) []byte {
	body := make([]byte, 1+48+4+1)
	body[0] = kind
	putBox(body[1:], box)
	putU32(body[49:], limit)
	body[53] = flags
	return body
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestRangeStreamMatchesDirectQuery(t *testing.T) {
	els := testElements(5000, 1)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)

	// Every query counts its own cold reads, so the local and the served
	// query report equal stats.
	q := sx.Bounds()
	want, wantStats, err := sx.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.Range(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []flat.Element
	for e, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d elements, direct query returned %d", len(got), len(want))
	}
	// The stream preserves the index's deterministic result order.
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d: stream %+v != direct %+v", i, got[i], want[i])
		}
	}
	if st.Stats().TotalReads != wantStats.TotalReads {
		t.Fatalf("stream stats %d reads, direct %d", st.Stats().TotalReads, wantStats.TotalReads)
	}
	if st.Count() != uint64(len(want)) {
		t.Fatalf("stream count %d, want %d", st.Count(), len(want))
	}

	// Count query: same cardinality, no materialization round trip.
	n, cs, err := c.Count(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(want)) {
		t.Fatalf("count %d, want %d", n, len(want))
	}
	if cs.TotalReads == 0 {
		t.Fatal("count query reported zero page reads")
	}

	// Limited query stops at exactly k results and costs fewer reads.
	lim, err := c.Range(context.Background(), q, QueryOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, err := range lim.All() {
		if err != nil {
			t.Fatal(err)
		}
		k++
	}
	if k != 10 {
		t.Fatalf("limited stream yielded %d elements, want 10", k)
	}
	if lim.Stats().TotalReads >= wantStats.TotalReads {
		t.Fatalf("limited query read %d pages, full query %d: limit did not abort the crawl",
			lim.Stats().TotalReads, wantStats.TotalReads)
	}

	// A negative limit is unlimited, as in flat.WithLimit. A limit the
	// wire's 32-bit field cannot carry is refused before anything is
	// sent (the counters below see no third range or count query), never
	// wrapped into a smaller one.
	if n, _, err := c.Count(context.Background(), q, QueryOptions{Limit: -1}); err != nil || n != uint64(len(want)) {
		t.Fatalf("count with limit -1 = %d, %v; want %d", n, err, len(want))
	}
	for _, limit := range []int{1<<32 + 10, 1 << 32} {
		if n, _, err := c.Count(context.Background(), q, QueryOptions{Limit: limit}); err == nil {
			t.Fatalf("count with limit %d answered %d, want a refusal", limit, n)
		}
		if _, err := c.Range(context.Background(), q, QueryOptions{Limit: limit}); err == nil {
			t.Fatalf("range with limit %d was sent, want a refusal", limit)
		}
	}

	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elements != len(els) {
		t.Fatalf("stats elements %d, want %d", stats.Elements, len(els))
	}
	if stats.Counters.RangeQueries != 2 || stats.Counters.CountQueries != 2 {
		t.Fatalf("per-kind counters: %+v", stats.Counters)
	}
	if stats.Counters.PagesRead == 0 {
		t.Fatal("stats reported zero pages read after three queries")
	}
}

// TestDisconnectCancelsCrawl is the acceptance test for disconnect
// handling: a client that reads one element of a large stream and
// drops the TCP connection must stop the server-side crawl between
// page reads — the admission slot frees, the cancellation is counted,
// and the aborted query's recorded page reads are far below a full
// drain's. Run under -race, this also proves the teardown path does
// not race the crawl.
func TestDisconnectCancelsCrawl(t *testing.T) {
	els := testElements(80000, 2)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{streamBatch: 64})
	q := sx.Bounds()

	// Baseline: one fully drained query, and its page-read cost.
	c1 := dialServer(t, s)
	full, err := c1.Range(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range full.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(els) {
		t.Fatalf("baseline drained %d of %d elements", n, len(els))
	}
	fullReads := s.pagesRead.Load()
	if fullReads == 0 {
		t.Fatal("baseline query recorded no page reads")
	}
	// Every crawl counts its own cold reads, so the second one's count
	// is comparable with the first's.
	waitFor(t, 10*time.Second, func() bool { return s.adm.inflight() == 0 },
		"baseline query still holds its admission slot")

	// Aborted run: read one element, then drop the connection cold.
	// Throttled sockets guarantee the crawl stalls on backpressure long
	// before it finishes, so the abort happens mid-crawl.
	c2 := dialServer(t, s)
	throttle(t, s, c2)
	st, err := c2.Range(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("stream produced nothing: %v", st.Err())
	}
	c2.Close()

	// The crawl must stop and give its admission slot back.
	waitFor(t, 10*time.Second, func() bool { return s.adm.inflight() == 0 },
		"crawl still holds its admission slot after client disconnect")
	if got := s.cancelled.Load(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	// The aborted crawl did real work (its stats are consistent, not
	// zeroed) but nowhere near a full drain (page reads stopped).
	aborted := s.pagesRead.Load() - fullReads
	if aborted <= 0 {
		t.Fatal("aborted query recorded no page reads")
	}
	if aborted >= fullReads/2 {
		t.Fatalf("aborted query read %d pages, full drain %d: disconnect did not stop the crawl",
			aborted, fullReads)
	}
}

// TestAdmissionRejectsOverBudget is the acceptance test for admission
// control: with a budget of N=2, two stalled streams hold the slots, a
// third query is rejected with a wire-mapped flat.ErrBusy, and the two
// in-flight streams still drain to completion afterwards.
func TestAdmissionRejectsOverBudget(t *testing.T) {
	els := testElements(40000, 3)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{maxInflight: 2, streamBatch: 16})
	q := sx.Bounds()

	// Two clients, one stream each; not reading past the first element
	// stalls them mid-crawl via backpressure, in-flight indefinitely.
	c1, c2 := dialServer(t, s), dialServer(t, s)
	throttle(t, s, c1)
	throttle(t, s, c2)
	st1, err := c1.Range(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.Range(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st1.Next(); !ok {
		t.Fatalf("stream 1 produced nothing: %v", st1.Err())
	}
	if _, ok := st2.Next(); !ok {
		t.Fatalf("stream 2 produced nothing: %v", st2.Err())
	}
	waitFor(t, 5*time.Second, func() bool { return s.adm.inflight() == 2 },
		"two streams never both held admission slots")

	// The N+1th query must bounce with the in-process sentinel.
	c3 := dialServer(t, s)
	st3, err := c3.Range(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Next(); ok {
		t.Fatal("over-budget query produced a result")
	}
	if !errors.Is(st3.Err(), flat.ErrBusy) {
		t.Fatalf("over-budget query error = %v, want flat.ErrBusy", st3.Err())
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// The rejection must not have disturbed the admitted streams: both
	// drain to the full result set. (Unthrottled again: the stall has
	// served its purpose, the drain should run at loopback speed.)
	unthrottle(t, s, c1)
	unthrottle(t, s, c2)
	for i, st := range []*Stream{st1, st2} {
		n := 1 // the element already pulled above
		for _, err := range st.All() {
			if err != nil {
				t.Fatalf("stream %d: %v", i+1, err)
			}
			n++
		}
		if n != len(els) {
			t.Fatalf("stream %d drained %d of %d elements", i+1, n, len(els))
		}
	}
	// A slot is released after the stream's last frame is written, so the
	// client can see the end of the stream a moment before the server
	// lets go.
	waitFor(t, 5*time.Second, func() bool { return s.adm.inflight() == 0 },
		"admission slots still held after both streams drained")
}

func TestCancelFrameStopsStream(t *testing.T) {
	els := testElements(40000, 4)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{streamBatch: 16})
	c := dialServer(t, s)
	throttle(t, s, c)

	st, err := c.Range(context.Background(), sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("stream ended early: %v", st.Err())
		}
	}
	st.Cancel()
	n := 5
	for range st.All() {
		n++
	}
	if n >= len(els) {
		t.Fatal("cancelled stream drained the full result set")
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", st.Err())
	}
	waitFor(t, 5*time.Second, func() bool { return s.adm.inflight() == 0 },
		"cancelled query still holds its admission slot")
	// The connection survives a cancel: the next query runs normally.
	cnt, _, err := c.Count(context.Background(), sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != uint64(len(els)) {
		t.Fatalf("post-cancel count %d, want %d", cnt, len(els))
	}
}

func TestClientContextCancelAbandonsStream(t *testing.T) {
	els := testElements(40000, 5)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{streamBatch: 16})
	c := dialServer(t, s)
	throttle(t, s, c)

	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.Range(ctx, sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("stream produced nothing: %v", st.Err())
	}
	cancel()
	// Next drains buffered frames first, then observes the context.
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", st.Err())
	}
	waitFor(t, 5*time.Second, func() bool { return s.adm.inflight() == 0 },
		"context-cancelled query still holds its admission slot")
	// The background drainer must have retired the request id and kept
	// the connection usable.
	cnt, _, err := c.Count(context.Background(), sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != uint64(len(els)) {
		t.Fatalf("post-abandon count %d, want %d", cnt, len(els))
	}
}

func TestPerConnectionQueryLimit(t *testing.T) {
	els := testElements(40000, 6)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{maxConnQueries: 1, streamBatch: 16})
	c := dialServer(t, s)
	throttle(t, s, c)

	st1, err := c.Range(context.Background(), sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Drain st1 from a separate goroutine: the throttled socket keeps
	// it in flight for a long time, and a flowing consumer keeps the
	// connection's (blocking) demultiplexer responsive for st2 below.
	drained := make(chan int, 1)
	go func() {
		n := 0
		for _, err := range st1.All() {
			if err == nil {
				n++
			}
		}
		drained <- n
	}()
	// Same connection, second concurrent query: over the per-conn cap.
	st2, err := c.Range(context.Background(), sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Next(); ok {
		t.Fatal("over-cap query produced a result")
	}
	if !errors.Is(st2.Err(), flat.ErrBusy) {
		t.Fatalf("over-cap query error = %v, want flat.ErrBusy", st2.Err())
	}
	// A second connection is unaffected by the first one's cap.
	c2 := dialServer(t, s)
	lim, err := c2.Range(context.Background(), sx.Bounds(), QueryOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range lim.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("second connection drained %d, want 5", n)
	}
	// The rejection must not have disturbed the capped connection's
	// admitted stream.
	unthrottle(t, s, c)
	if got := <-drained; got != len(els) {
		t.Fatalf("stream 1 drained %d of %d elements", got, len(els))
	}
}

// TestDuplicateRequestIDRefused: a request id that is still in flight
// on the connection is refused — it takes no slot, so it cannot slip
// past maxConnQueries, and the first query keeps its cancel entry: it
// streams on undisturbed and a msgCancel for the id still stops it.
func TestDuplicateRequestIDRefused(t *testing.T) {
	els := testElements(40000, 12)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{maxConnQueries: 4, streamBatch: 16})

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var version [1]byte
	if _, err := conn.Write(append(magic[:], Version)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, version[:]); err != nil || version[0] != Version {
		t.Fatalf("handshake: version %d, %v", version[0], err)
	}
	setSocketBuffers(t, s, conn, 8192) // the first stream must stay in flight

	// Twenty queries under one id, written before reading anything.
	const id, dups = 7, 19
	q := frame(msgQuery, id, queryBody(kindRange, sx.Bounds(), 0, 0))
	for i := 0; i <= dups; i++ {
		if _, err := conn.Write(q); err != nil {
			t.Fatal(err)
		}
	}

	// The original stream keeps flowing; each duplicate is answered
	// with an error frame and never holds a slot.
	refused, elems := 0, 0
	for refused < dups {
		typ, payload, err := readFrame(&frameSource{Reader: conn})
		if err != nil {
			t.Fatalf("after %d refusals and %d elements: %v", refused, elems, err)
		}
		if n := s.adm.inflight(); n > 1 {
			t.Fatalf("%d queries in flight under one request id", n)
		}
		if getU32(payload) != id {
			t.Fatalf("frame for request %d, want %d", getU32(payload), id)
		}
		switch typ {
		case msgElems:
			elems += int(getU32(payload[4:]))
		case msgErr:
			if err := decodeErr(payload[4:]); payload[4] != codeBadRequest || !strings.Contains(err.Error(), "already in flight") {
				t.Fatalf("duplicate id refused with code %d: %v", payload[4], err)
			}
			refused++
		default:
			t.Fatalf("unexpected frame type 0x%02x", typ)
		}
	}

	if _, err := conn.Write(frame(msgCancel, id, nil)); err != nil {
		t.Fatal(err)
	}
	for {
		typ, payload, err := readFrame(&frameSource{Reader: conn})
		if err != nil {
			t.Fatal(err)
		}
		if typ == msgElems {
			elems += int(getU32(payload[4:]))
			continue
		}
		if typ != msgErr || !errors.Is(decodeErr(payload[4:]), context.Canceled) {
			t.Fatalf("cancelled stream closed by frame 0x%02x", typ)
		}
		break
	}
	if elems >= len(els) {
		t.Fatal("cancelled stream drained the full result set")
	}
	waitFor(t, 5*time.Second, func() bool { return s.adm.inflight() == 0 },
		"cancelled query still holds its admission slot")
}

func TestStagedWritesDurableAcrossReopen(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { testStagedWritesDurableAcrossReopen(t, k) })
	}
}

func testStagedWritesDurableAcrossReopen(t *testing.T, k int) {
	dir := t.TempDir()
	els := testElements(2000, 7)
	sx, err := flat.Build(els, &flat.Options{Shards: k, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)
	ctx := context.Background()

	// Stage an insert and a delete through the wire; the OK responses
	// promise WAL durability.
	extra := flat.Element{ID: 1 << 40, Box: flat.CubeAt(flat.V(500, 500, 500), 2)}
	if err := c.Insert(ctx, []flat.Element{extra}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, els[0].ID, els[0].Box); err != nil {
		t.Fatal(err)
	}

	// Staged updates are visible to queries immediately.
	st, err := c.Range(ctx, extra.Box, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for e, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		found = found || e.ID == extra.ID
	}
	if !found {
		t.Fatal("staged insert invisible to a query on the same server")
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delta.Inserts != 1 || stats.Delta.Deletes != 1 {
		t.Fatalf("stats delta = %+v, want 1 insert + 1 delete", stats.Delta)
	}
	if stats.Counters.Inserts != 1 || stats.Counters.Deletes != 1 {
		t.Fatalf("write counters: %+v", stats.Counters)
	}

	// Simulate a crash: tear the server down, close nothing gracefully
	// beyond what Insert/Delete already promised, reopen from disk.
	s.Shutdown()
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := flat.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if d := re.DeltaStats(); d.Inserts != 1 || d.Deletes != 1 {
		t.Fatalf("replayed delta: %d inserts, %d deletes; want 1 and 1", d.Inserts, d.Deletes)
	}
	got, _, err := re.RangeQuery(extra.Box)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, e := range got {
		found = found || e.ID == extra.ID
	}
	if !found {
		t.Fatal("acknowledged insert lost across reopen")
	}
	// The replayed delta folds like one staged in this process.
	rebuilt, err := re.Rebuild()
	if err != nil || len(rebuilt) == 0 {
		t.Fatalf("Rebuild of the replayed delta = %v, %v", rebuilt, err)
	}
	for _, s := range rebuilt {
		if g := re.ShardGeneration(s); g != 1 {
			t.Fatalf("rebuilt shard %d at generation %d, want 1", s, g)
		}
	}
	if re.Len() != len(els) {
		t.Fatalf("Len after folding one insert and one delete = %d, want %d", re.Len(), len(els))
	}
}

func TestRebuildOverWire(t *testing.T) {
	dir := t.TempDir()
	els := testElements(2000, 8)
	sx, err := flat.Build(els, &flat.Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)
	ctx := context.Background()

	extra := flat.Element{ID: 1 << 41, Box: flat.CubeAt(flat.V(100, 100, 100), 2)}
	if err := c.Insert(ctx, []flat.Element{extra}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Rebuild(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("rebuild folded no shards despite a staged insert")
	}
	if d := sx.DeltaStats(); d.Inserts != 0 || d.Deletes != 0 {
		t.Fatalf("delta after rebuild: %d inserts, %d deletes", d.Inserts, d.Deletes)
	}
}

// TestRebuildBesideParkedSession folds a delta staged over the wire
// while an in-process session on the server's index is parked inside
// its first run: Rebuild returns the rebuilt shard count instead of
// refusing, and the parked session then finishes over the generation it
// started on.
func TestRebuildBesideParkedSession(t *testing.T) {
	els := testElements(2000, 9)
	sx, err := flat.Build(els, &flat.Options{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)
	ctx := context.Background()

	parked, unpark, done := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		res := sx.Query(ctx, sx.Bounds())
		for run, err := range res.Batches() {
			if err != nil {
				t.Errorf("parked session: %v", err)
				break
			}
			if n == 0 {
				close(parked)
				<-unpark
			}
			n += len(run)
		}
		done <- n
	}()
	<-parked

	extra := flat.Element{ID: 1 << 42, Box: flat.CubeAt(flat.V(100, 100, 100), 2)}
	if err := c.Insert(ctx, []flat.Element{extra}); err != nil {
		t.Error(err)
	}
	if n, err := c.Rebuild(ctx); err != nil || n != 1 {
		t.Errorf("Rebuild beside a parked session = %d, %v; want 1 shard rebuilt", n, err)
	}
	close(unpark)
	if got := <-done; got != len(els) {
		t.Fatalf("parked session delivered %d elements, want the %d of the generation it started on", got, len(els))
	}
	cnt, _, err := c.Count(ctx, sx.Bounds().Union(extra.Box), QueryOptions{})
	if err != nil || cnt != uint64(len(els)+1) {
		t.Fatalf("count after the fold = %d, %v; want %d", cnt, err, len(els)+1)
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	els := testElements(40000, 10)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(sx, Config{streamBatch: 16, drainTimeout: 300 * time.Millisecond})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	// One stalled stream keeps a slot busy through the drain window.
	c1 := dialServer(t, s)
	throttle(t, s, c1)
	st, err := c1.Range(context.Background(), sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("stream produced nothing: %v", st.Err())
	}

	// Dial the probe connection before the drain starts: Shutdown
	// closes the listener first thing.
	c2 := dialServer(t, s)
	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	// While draining, new queries are refused with ErrShuttingDown (or,
	// once the drain deadline passes and connections drop, a connection
	// error). The probes run under a short deadline so an indeterminate
	// answer never wedges the poll.
	waitFor(t, 2*time.Second, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, _, err := c2.Count(ctx, sx.Bounds(), QueryOptions{})
		return err != nil && (errors.Is(err, ErrShuttingDown) || errors.Is(err, flat.ErrClosed))
	}, "drain never refused a new query")

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return: stalled stream was never cancelled")
	}
	if s.adm.inflight() != 0 {
		t.Fatalf("in-flight = %d after Shutdown", s.adm.inflight())
	}
	// The index survives the server: it is the caller's to close.
	if _, _, err := sx.RangeQuery(flat.CubeAt(flat.V(1, 1, 1), 1)); err != nil {
		t.Fatalf("index unusable after Shutdown: %v", err)
	}
	// ... and closable at once, as cmd/flatserve does: Shutdown waited
	// for the query goroutines, so no query is still in flight.
	if err := sx.Close(); err != nil {
		t.Fatalf("Close right after Shutdown: %v", err)
	}
}

// TestNoHandlerAfterShutdown dials from several goroutines while
// Shutdown runs, over rounds that start Shutdown at growing delays after
// the first dials. Serve counts a connection's handler before it
// releases the registry Shutdown closes connections under, so once
// Shutdown returns no handler may be running or about to start; one
// already inside its deferred wg.Done is finished (exiting).
func TestNoHandlerAfterShutdown(t *testing.T) {
	sx, err := flat.Build(testElements(2000, 31), &flat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	for round := range 50 {
		s := NewServer(sx, Config{})
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve() }()
		var (
			dialers sync.WaitGroup
			mu      sync.Mutex
			conns   []net.Conn
		)
		for range 4 {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					c, err := net.Dial("tcp", s.Addr().String())
					if err != nil { // the listener is closed
						return
					}
					mu.Lock()
					conns = append(conns, c)
					mu.Unlock()
				}
			}()
		}
		time.Sleep(time.Duration(round) * 10 * time.Microsecond)
		s.Shutdown()
		held := otherStacks(func(g string) bool { return strings.Contains(g, "(*Server).handle") && !exiting(g) })
		dialers.Wait()
		for _, c := range conns {
			c.Close()
		}
		if err := <-served; err != nil {
			t.Fatalf("round %d: Serve = %v after Shutdown", round, err)
		}
		if len(held) > 0 {
			t.Fatalf("round %d: %d connection handler(s) alive after Shutdown returned:\n\n%s", round, len(held), strings.Join(held, "\n\n"))
		}
	}
}

// TestQueryRecordReuse: a connection reuses an answered query's record
// for its next query, and a reused record is fresh. A Cancel naming a
// query that was already answered leaves the query that took over its
// record running, and a record whose query was cancelled mid-stream
// serves the next query to the end under a done channel of its own.
// One query at a time is in flight, so the connection keeps one record
// once the first is answered.
func TestQueryRecordReuse(t *testing.T) {
	els := testElements(40000, 13)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{streamBatch: 16})
	rc := dialRaw(t, s)
	setSocketBuffers(t, s, rc.conn, 8192) // a range stream stalls until read
	count := frame(msgQuery, 0, queryBody(kindCount, sx.Bounds(), 0, 0))
	stream := frame(msgQuery, 0, queryBody(kindRange, sx.Bounds(), 0, 0))
	counts := func(what string) {
		t.Helper()
		if _, typ, body, err := rc.answer(); err != nil || typ != msgDone || getU64(body) != uint64(len(els)) {
			t.Fatalf("%s: terminator 0x%02x, %v", what, typ, err)
		}
	}
	for round := range 4 {
		// A is answered; B takes A's record, and a Cancel naming A
		// arrives while B crawls.
		if err := rc.send(count); err != nil {
			t.Fatal(err)
		}
		counts(fmt.Sprintf("round %d: query A", round))
		a := rc.id
		if err := rc.send(count); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.conn.Write(frame(msgCancel, a, nil)); err != nil {
			t.Fatal(err)
		}
		counts(fmt.Sprintf("round %d: query B after a late Cancel of A", round))

		// C is cancelled mid-stream; D takes C's record.
		if err := rc.send(stream); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := rc.next(); err != nil || typ != msgElems {
			t.Fatalf("round %d: stream C opened with frame 0x%02x, %v", round, typ, err)
		}
		if _, err := rc.conn.Write(frame(msgCancel, rc.id, nil)); err != nil {
			t.Fatal(err)
		}
		if _, typ, body, err := rc.answer(); err != nil || typ != msgErr || body[0] != codeCancelled {
			t.Fatalf("round %d: cancelled stream C closed by frame 0x%02x, %v", round, typ, err)
		}
		if err := rc.send(count); err != nil {
			t.Fatal(err)
		}
		counts(fmt.Sprintf("round %d: query D after C was cancelled", round))
	}
}

// TestShutdownStopsWorkers: with a connection's 16 streams stalled and
// half of them cancelled, Shutdown returns only once every worker of the
// connection has exited. A worker Shutdown did not wait for is gone a
// moment later, so the check is repeated over many rounds.
func TestShutdownStopsWorkers(t *testing.T) {
	sx, err := flat.Build(testElements(40000, 14), &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	for round := range 50 {
		s := NewServer(sx, Config{streamBatch: 16, drainTimeout: 10 * time.Millisecond})
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		throttle(t, s, c)
		var streams []*Stream
		for range 16 {
			st, err := c.Range(context.Background(), sx.Bounds(), QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, st)
		}
		waitFor(t, 10*time.Second, func() bool { return s.adm.inflight() == 16 }, "16 streams in flight on one connection")
		for _, st := range streams[:8] {
			st.Cancel()
		}
		s.Shutdown()
		held := otherStacks(func(g string) bool { return strings.Contains(g, "(*srvConn).worker") && !exiting(g) })
		c.Close()
		if len(held) > 0 {
			t.Fatalf("round %d: %d query worker(s) alive after Shutdown returned:\n\n%s", round, len(held), strings.Join(held, "\n\n"))
		}
	}
}

// exiting reports whether the worker or connection-handler stack g is
// past its work: inside its deferred wg.Done, or just back from it.
// Shutdown's Wait may return before such a goroutine is gone, as it may
// before any goroutine that signals a WaitGroup on its way out.
func exiting(g string) bool {
	for _, l := range strings.Split(g, "\n")[1:] { // behind "goroutine N [state]:"
		switch {
		case strings.HasPrefix(l, "\t"): // a frame's file and line
		case strings.HasPrefix(l, "sync."), strings.HasPrefix(l, "sync/atomic."), strings.HasPrefix(l, "internal/race."):
		default:
			return strings.HasPrefix(l, "flat/internal/serve.(*srvConn).worker(") || strings.HasPrefix(l, "flat/internal/serve.(*Server).handle(")
		}
	}
	return false
}

func TestHandshakeRejectsStrangers(t *testing.T) {
	els := testElements(100, 11)
	ix, err := flat.Build(els, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := startServer(t, ix, Config{})

	// Wrong magic: the server hangs up without a byte.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("HTTP/"))
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, _ := conn.Read(buf); n != 0 {
		t.Fatalf("server answered %d bytes to a bad magic", n)
	}
	conn.Close()

	// Right magic, wrong version: one refusal byte (0), then hangup.
	conn, err = net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(append(append([]byte{}, magic[:]...), 99))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatalf("version refusal byte = %d, want 0", buf[0])
	}
	conn.Close()

	// And the canonical client still gets in afterwards.
	c := dialServer(t, s)
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDialTimesOutOnSilentPeer: a listener that accepts and never
// answers the hello (a wrong port, a wedged server) must cost Dial's
// caller a timeout error, not a goroutine parked for good — the leak
// gate in TestMain would name a reader left behind.
func TestDialTimesOutOnSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn // held open, never read, never written
	}()
	defer func() {
		if conn := <-accepted; conn != nil {
			conn.Close()
		}
	}()

	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 100 * time.Millisecond

	dialed := make(chan error, 1)
	go func() {
		c, err := Dial(ln.Addr().String())
		if err == nil {
			c.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("Dial against a silent peer returned %v, want a timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial against a silent peer is still parked after 5s")
	}
}

// TestConcurrentMixedLoad hammers one server from many goroutines —
// streams, counts, cancels, stats — to give the race detector surface.
func TestConcurrentMixedLoad(t *testing.T) {
	els := testElements(20000, 12)
	sx, err := flat.Build(els, &flat.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{maxInflight: 8, streamBatch: 32})
	q := sx.Bounds()

	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		go func(w int) {
			c, err := Dial(s.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < 15; i++ {
				switch (w + i) % 4 {
				case 0:
					st, err := c.Range(context.Background(), q, QueryOptions{Limit: 100})
					if err != nil {
						errc <- err
						return
					}
					for _, err := range st.All() {
						if err != nil && !errors.Is(err, flat.ErrBusy) {
							errc <- fmt.Errorf("worker %d stream: %w", w, err)
							return
						}
					}
				case 1:
					if _, _, err := c.Count(context.Background(), q, QueryOptions{Limit: 50}); err != nil && !errors.Is(err, flat.ErrBusy) {
						errc <- err
						return
					}
				case 2:
					st, err := c.Range(context.Background(), q, QueryOptions{})
					if err != nil {
						errc <- err
						return
					}
					st.Next()
					st.Cancel()
					for range st.All() {
					}
				case 3:
					if _, err := c.Stats(context.Background()); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return s.adm.inflight() == 0 },
		"queries leaked admission slots under mixed load")
}
