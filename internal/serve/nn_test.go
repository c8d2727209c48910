package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"flat"
)

// drainWireNN drains a remote NN stream, asserting nondecreasing
// distance from p as the elements arrive.
func drainWireNN(t *testing.T, st *Stream, p flat.Vec3) []flat.Element {
	t.Helper()
	var out []flat.Element
	prev := math.Inf(-1)
	for e, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		if d := e.Box.DistSqToPoint(p); d < prev {
			t.Fatalf("emission %d: distance %g after %g (order regressed on the wire)", len(out), d, prev)
		} else {
			prev = d
		}
		out = append(out, e)
	}
	return out
}

// TestNNStreamMatchesDirectNN is the wire-parity gate for the
// nearest-neighbor protocol: the remote stream must deliver exactly
// the elements the in-process session delivers, in the same order,
// with the same page-read accounting.
func TestNNStreamMatchesDirectNN(t *testing.T) {
	els := testElements(4000, 7)
	sx, err := flat.Build(els, &flat.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)

	p := flat.V(400, 250, 600)
	const k = 25

	direct := sx.NN(context.Background(), p, k)
	var want []flat.Element
	for e, err := range direct.All() {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}

	st, err := c.NN(context.Background(), p, k)
	if err != nil {
		t.Fatal(err)
	}
	got := drainWireNN(t, st, p)
	if len(got) != len(want) {
		t.Fatalf("wire NN returned %d elements, direct session %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("emission %d: wire %+v != direct %+v", i, got[i], want[i])
		}
	}
	if st.Stats().TotalReads != direct.Stats().TotalReads {
		t.Fatalf("wire NN stats %d reads, direct %d", st.Stats().TotalReads, direct.Stats().TotalReads)
	}
	if st.Count() != uint64(k) {
		t.Fatalf("stream count %d, want %d", st.Count(), k)
	}

	// A k the wire's 32-bit field cannot carry is refused before anything
	// is sent (NNQueries stays 1), never wrapped into a smaller k.
	if _, err := c.NN(context.Background(), p, 1<<32+3); err == nil {
		t.Fatal("NN with k = 2^32+3 was sent, want a refusal")
	}

	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters.NNQueries != 1 {
		t.Fatalf("NNQueries counter = %d, want 1", stats.Counters.NNQueries)
	}
}

// A small k through the wire must cost strictly fewer page reads than
// a remote full drain — the best-first traversal's pruning survives
// the protocol.
func TestNNOverWireReadsFewerPages(t *testing.T) {
	els := testElements(6000, 8)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)

	nn, err := c.NN(context.Background(), flat.V(500, 500, 500), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range nn.All() {
		if err != nil {
			t.Fatal(err)
		}
	}
	nnReads := nn.Stats().TotalReads

	full, err := c.Range(context.Background(), sx.Bounds(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range full.All() {
		if err != nil {
			t.Fatal(err)
		}
	}
	if nnReads == 0 || nnReads >= full.Stats().TotalReads {
		t.Fatalf("wire NN(k=4) read %d pages, full drain %d — expected strictly fewer (and nonzero)",
			nnReads, full.Stats().TotalReads)
	}
}

// TestNNCancelMidStream aborts an unbounded distance-ordered drain
// partway through and expects the wire-mapped context.Canceled; the
// connection must stay usable for the next request.
func TestNNCancelMidStream(t *testing.T) {
	els := testElements(60000, 9)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{StreamBatch: 16})
	c := dialServer(t, s)
	throttle(t, s, c)

	p := flat.V(500, 500, 500)
	st, err := c.NN(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("element %d: stream ended early: %v", i, st.Err())
		}
	}
	st.Cancel()
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("cancelled NN stream terminated with %v, want context.Canceled", st.Err())
	}
	unthrottle(t, s, c)
	waitFor(t, 5*time.Second, func() bool { return s.adm.inflight() == 0 }, "admission slot not released after NN cancel")

	// The connection answers the next NN normally.
	again, err := c.NN(context.Background(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainWireNN(t, again, p); len(got) != 3 {
		t.Fatalf("post-cancel NN returned %d elements, want 3", len(got))
	}
}

// Malformed frames of every request type — bad lengths, unknown kinds
// and frame types, reserved flag bits on either streaming request — are
// answered with a codeBadRequest error frame, not a dropped connection.
func TestNNBadFrameRejected(t *testing.T) {
	els := testElements(500, 10)
	sx, err := flat.Build(els, &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)

	sendRaw := func(typ byte, body []byte) error {
		id, ch, err := c.start(typ, append(make([]byte, frameHeader), body...))
		if err != nil {
			t.Fatal(err)
		}
		defer c.unregister(id)
		fr, ok := <-ch
		if !ok {
			t.Fatal(c.connErr())
		}
		if fr.typ != msgErr {
			t.Fatalf("unexpected frame type 0x%02x", fr.typ)
		}
		err = decodeErr(fr.body)
		if fr.body[0] != codeBadRequest || !strings.Contains(err.Error(), "bad request") {
			t.Fatalf("frame 0x%02x refused with code %d (%v), want codeBadRequest", typ, fr.body[0], err)
		}
		return err
	}

	if err := sendRaw(msgNN, make([]byte, 4+10)); err == nil || !strings.Contains(err.Error(), "bad nn frame length") {
		t.Fatalf("short frame error = %v", err)
	}
	bad := make([]byte, 4+24+4+1)
	bad[32] = 0x7f
	if err := sendRaw(msgNN, bad); err == nil || !strings.Contains(err.Error(), "unknown nn flags") {
		t.Fatalf("bad flags error = %v", err)
	}
	bad = append(make([]byte, 4), queryBody(kindRange, sx.Bounds(), 0, 0x01)...)
	if err := sendRaw(msgQuery, bad); err == nil || !strings.Contains(err.Error(), "unknown query flags") {
		t.Fatalf("bad query flags error = %v", err)
	}
	for _, tc := range []struct {
		typ  byte
		body []byte // after the request id
		want string
	}{
		{msgQuery, make([]byte, 10), "bad query frame length"},
		{msgQuery, queryBody(9, sx.Bounds(), 0, 0), "unknown query kind"},
		{msgInsert, make([]byte, 2), "bad insert frame"},
		{msgInsert, []byte{2, 0, 0, 0, 0xff}, "insert frame: 2 elements"},
		{msgDelete, make([]byte, elementWire-1), "bad delete frame"},
		{0x7e, nil, "unknown frame type"},
	} {
		if err := sendRaw(tc.typ, append(make([]byte, 4), tc.body...)); !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("frame 0x%02x: error = %v, want %q", tc.typ, err, tc.want)
		}
	}

	// The connection survives and still answers queries.
	p := flat.V(100, 100, 100)
	st, err := c.NN(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainWireNN(t, st, p); got == nil || len(got) != 2 {
		t.Fatalf("post-error NN returned %d elements, want 2", len(got))
	}
}

// A query point with a non-finite coordinate travels the wire as sent
// and is refused by the index: the client gets an error for that query,
// and the same connection then answers a valid NN.
func TestNNNonFinitePointRejected(t *testing.T) {
	sx, err := flat.Build(testElements(500, 11), &flat.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)

	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := flat.V(x, 1, 1)
		st, err := c.NN(context.Background(), p, 5)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, err = range st.All() {
			if err != nil {
				break
			}
			n++
		}
		if n != 0 || err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("NN at %v: %d elements, error %v; want none and a not-finite error", p, n, err)
		}
	}
	p := flat.V(100, 100, 100)
	st, err := c.NN(context.Background(), p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainWireNN(t, st, p); len(got) != 5 {
		t.Fatalf("valid NN after the refusals returned %d elements, want 5", len(got))
	}
}
