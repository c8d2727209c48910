package serve

import (
	"context"
	"encoding/binary"
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
// and client together (the server's share is 0, see
// TestServedQueryAllocatesNothing; the Client's Stream, its channel and
// its request frame make the rest), so a new allocation on that path
// fails here rather than going unseen.
func TestStreamAllocationsIndependentOfResults(t *testing.T) {
	const maxSNDrainAllocs = 4
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

// rawClient speaks the protocol over one connection without allocating:
// a request is encoded once, and every response frame lands in one
// fixed buffer.
type rawClient struct {
	conn net.Conn
	buf  []byte
	id   uint32 // the last request id sent
}

func dialRaw(t testing.TB, s *Server) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(time.Minute))
	var version [1]byte
	if _, err := conn.Write(append(magic[:], Version)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, version[:]); err != nil || version[0] != Version {
		t.Fatalf("handshake: version %d, %v", version[0], err)
	}
	return &rawClient{conn: conn, buf: make([]byte, bodyStart+4+frameGrowthCap*elementWire)}
}

// send sends req, an encoded request frame, under a fresh request id,
// so that the id of the answer before, which the server may not have
// retired yet, is never reused.
func (rc *rawClient) send(req []byte) error {
	rc.id++
	putU32(req[frameHeader:], rc.id)
	_, err := rc.conn.Write(req)
	return err
}

// next reads one response frame into the fixed buffer: its type and
// its payload behind the request id, which must be the last request's.
func (rc *rawClient) next() (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(rc.conn, rc.buf[:frameHeader]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(rc.buf))
	if n < 4 || frameHeader+n > len(rc.buf) {
		return 0, nil, errFrameSize
	}
	payload := rc.buf[frameHeader : frameHeader+n]
	if _, err := io.ReadFull(rc.conn, payload); err != nil {
		return 0, nil, err
	}
	if getU32(payload) != rc.id {
		return 0, nil, errShortFrame
	}
	return rc.buf[4], payload[4:], nil
}

// answer reads the last request's response up to its terminator: the
// elements its msgElems frames carry, and the terminator's type and
// payload behind the request id.
func (rc *rawClient) answer() (elems int, typ byte, body []byte, err error) {
	for {
		if typ, body, err = rc.next(); err != nil || typ != msgElems {
			return elems, typ, body, err
		}
		elems += int(getU32(body))
	}
}

// do sends req and reads its answer: the elements streamed, the
// terminator's type and, for msgDone, the result count.
func (rc *rawClient) do(req []byte) (elems int, typ byte, count uint64, err error) {
	if err := rc.send(req); err != nil {
		return 0, 0, 0, err
	}
	elems, typ, body, err := rc.answer()
	if err == nil && typ == msgDone {
		count = getU64(body)
	}
	return elems, typ, count, err
}

// TestServedQueryAllocatesNothing: a warm server answers an SN range
// query, a count query and a 10-NN query without a single allocation.
// The client allocates nothing itself (rawClient), so AllocsPerRun,
// which counts the whole process, counts the server alone.
func TestServedQueryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop frame buffers at random")
	}
	sx, err := flat.Build(testElements(20000, 23), &flat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	rc := dialRaw(t, startServer(t, sx, Config{}))
	sn := flat.CubeAt(flat.V(500, 500, 500), 100)
	nn := make([]byte, 24+4+1)
	putF64(nn[0:], 500)
	putF64(nn[8:], 500)
	putF64(nn[16:], 500)
	putU32(nn[24:], 10)
	for _, c := range []struct {
		name  string
		req   []byte
		elems func(count uint64) int // the elements the answer streams
	}{
		{"range", frame(msgQuery, 0, queryBody(kindRange, sn, 0, 0)), func(count uint64) int { return int(count) }},
		{"count", frame(msgQuery, 0, queryBody(kindCount, sn, 0, 0)), func(uint64) int { return 0 }},
		{"nn", frame(msgNN, 0, nn), func(uint64) int { return 10 }},
	} {
		answer := func() {
			elems, typ, count, err := rc.do(c.req)
			if err != nil || typ != msgDone || count == 0 || elems != c.elems(count) {
				t.Fatalf("%s: %d elements, %d results, terminator 0x%02x, %v", c.name, elems, count, typ, err)
			}
		}
		answer() // warm the caches, the pools and the connection's workers
		if allocs := testing.AllocsPerRun(100, answer); allocs != 0 {
			t.Errorf("a served %s query allocates %v times, want 0", c.name, allocs)
		}
	}
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
