package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flat"
)

// drainRange streams every result of q and fails the test on error.
func drainRange(t *testing.T, c *Client, q flat.MBR) int {
	t.Helper()
	st, err := c.Range(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOversizeStreamBatchClamped: a StreamBatch above what one frame
// carries is clamped to maxBatch, so a query with more results than
// that streams them all instead of failing its first frame as a
// cancellation.
func TestOversizeStreamBatchClamped(t *testing.T) {
	if maxBatch != 149796 {
		t.Fatalf("maxBatch = %d, want 149796", maxBatch)
	}
	els := testElements(maxBatch+10000, 21)
	sx, err := flat.Build(els, &flat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{StreamBatch: maxBatch + 204})
	c := dialServer(t, s)
	if n := drainRange(t, c, sx.Bounds()); n != len(els) {
		t.Fatalf("streamed %d of %d elements", n, len(els))
	}
	if got := s.Stats().Counters.Cancelled; got != 0 {
		t.Fatalf("Cancelled = %d after a complete stream", got)
	}
}

// TestInsertFrameLimit: an insert of maxBatch elements fits one frame
// and is staged; one more is refused by the client with an error that
// names both counts, before anything is sent, so the connection serves
// the next request.
func TestInsertFrameLimit(t *testing.T) {
	sx, err := flat.Build(testElements(2000, 22), &flat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)
	ctx := context.Background()
	big := make([]flat.Element, maxBatch+1)
	for i := range big {
		big[i] = flat.Element{ID: 1<<40 + uint64(i), Box: flat.CubeAt(flat.V(float64(i%1000), float64(i/1000%1000), 7), 1)}
	}
	err = c.Insert(ctx, big)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxBatch+1)) || !strings.Contains(err.Error(), fmt.Sprint(maxBatch)) {
		t.Fatalf("insert of maxBatch+1 elements: %v, want an error naming %d and %d", err, maxBatch+1, maxBatch)
	}
	if err := c.Insert(ctx, big[:maxBatch]); err != nil {
		t.Fatalf("insert of maxBatch elements: %v", err)
	}
	n, _, err := c.Count(ctx, flat.Box(flat.V(-1e9, -1e9, -1e9), flat.V(1e9, 1e9, 1e9)), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2000 + maxBatch); n != want {
		t.Fatalf("count after the inserts: %d, want %d", n, want)
	}
}

// TestStreamAllocationsIndependentOfResults pins the wire path's
// per-frame allocations at zero: over loopback, a warm drain of an
// LSS-sized box (tens of frames) allocates no more, server and client
// together, than a warm drain of an SN-sized box (one frame), because
// batches are encoded into a pooled frame in place and the client reads
// them into pooled payloads.
func TestStreamAllocationsIndependentOfResults(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop frame buffers at random")
	}
	sx, err := flat.Build(testElements(20000, 23), &flat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	s := startServer(t, sx, Config{})
	c := dialServer(t, s)
	sn := flat.CubeAt(flat.V(500, 500, 500), 100)
	lss := flat.CubeAt(flat.V(500, 500, 500), 600)
	allocs := func(q flat.MBR) (float64, int) {
		n := drainRange(t, c, q) // warm the caches and the pools
		return testing.AllocsPerRun(20, func() { drainRange(t, c, q) }), n
	}
	snAllocs, snN := allocs(sn)
	lssAllocs, lssN := allocs(lss)
	if snN == 0 || snN > 128 || lssN < 20*128 {
		t.Fatalf("SN box streams %d results (want 1 frame), LSS box %d (want ≥ 20 frames)", snN, lssN)
	}
	if lssAllocs > snAllocs {
		t.Errorf("LSS drain (%d results) allocates %v, SN drain (%d results) %v: the stream allocates per frame",
			lssN, lssAllocs, snN, snAllocs)
	}
	t.Logf("allocations per drain: SN %v (%d results), LSS %v (%d results)", snAllocs, snN, lssAllocs, lssN)
}
