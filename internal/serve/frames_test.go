package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"flat"
)

// drainRange streams every result of q and fails the test on error.
func drainRange(t testing.TB, c *Client, q flat.MBR) int {
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
// LSS-sized box (several frames) allocates no more, server and client
// together, than a warm drain of an SN-sized box (one frame), because
// batches are encoded into a pooled frame in place and the client reads
// them into pooled payloads. It also caps the SN drain itself at
// maxSNDrainAllocs, the per-query cost of a served small answer, server
// and client together, so a new allocation on that path (the msgDone
// stats among it) fails here rather than going unseen.
func TestStreamAllocationsIndependentOfResults(t *testing.T) {
	const maxSNDrainAllocs = 11
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
	if snAllocs > maxSNDrainAllocs {
		t.Errorf("SN drain (%d results) allocates %v, want ≤ %d", snN, snAllocs, maxSNDrainAllocs)
	}
	t.Logf("allocations per drain: SN %v (%d results), LSS %v (%d results)", snAllocs, snN, lssAllocs, lssN)
}

// TestStreamSize pins a Stream, which every served query allocates, at
// 176 bytes on 64-bit platforms: a size class of the allocator, which a
// new field would push to the next one (192).
func TestStreamSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Stream{}); got != 176 {
		t.Fatalf("unsafe.Sizeof(Stream{}) = %d, want 176", got)
	}
}

// streamFrames runs a range query over a raw connection to s and
// returns the element count of each msgElems frame, in order, checking
// that they sum to msgDone's result count.
func streamFrames(t *testing.T, s *Server, q flat.MBR) []int {
	t.Helper()
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
	if _, err := conn.Write(frame(msgQuery, 1, queryBody(kindRange, q, 0, 0))); err != nil {
		t.Fatal(err)
	}
	var counts []int
	total := 0
	for {
		typ, payload, err := readFrame(&frameSource{Reader: conn})
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case msgElems:
			n := int(getU32(payload[4:]))
			if len(payload) != 8+n*elementWire {
				t.Fatalf("frame of %d elements has %d payload bytes", n, len(payload))
			}
			counts = append(counts, n)
			total += n
		case msgDone:
			if got := getU64(payload[4:]); got != uint64(total) {
				t.Fatalf("msgDone counts %d results, the frames carried %d", got, total)
			}
			return counts
		default:
			t.Fatalf("unexpected frame type 0x%02x", typ)
		}
	}
}

// TestStreamFramesGrow: a stream's first frame carries streamBatch
// elements, so the time to the first result does not grow with the
// result's size, and each later frame twice the last, up to 1 170
// elements (64 KiB of payload); the last frame carries what is left.
func TestStreamFramesGrow(t *testing.T) {
	if frameGrowthCap != 1170 || 8+frameGrowthCap*elementWire > 64<<10 {
		t.Fatalf("frameGrowthCap = %d, want the 1 170 elements that fit 64 KiB of payload", frameGrowthCap)
	}
	els := testElements(20000, 24)
	sx, err := flat.Build(els, &flat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	for _, c := range []struct{ batch, first, max int }{
		{16, 16, 1170},
		{0, 128, 1170}, // the default
	} {
		var want []int
		for left, n := len(els), c.first; left > 0; n = min(2*n, c.max) {
			want = append(want, min(n, left))
			left -= want[len(want)-1]
		}
		s := startServer(t, sx, Config{streamBatch: c.batch})
		if got := streamFrames(t, s, sx.Bounds()); !slices.Equal(got, want) {
			t.Errorf("streamBatch %d: frames of %v elements, want %v", c.batch, got, want)
		}
	}
}
