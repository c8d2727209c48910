// Package serve implements flatserve's network layer: a TCP query
// service over an opened flat index. One server serves one *flat.Index
// and speaks Query API v2 over a length-prefixed binary protocol —
// streaming range/count queries with limits, staged writes against the
// index's logged delta path, rebuilds, and an admin/stats endpoint.
// The package also ships the matching pure-Go Client used by the tests,
// the bench harness and flatserve's one-shot mode.
//
// # Wire format
//
// A connection opens with a 5-byte client hello — the magic "FSRV"
// plus a protocol version byte — answered by a single byte from the
// server: the version it will speak (today always 1), or 0 to refuse,
// after which the server closes the connection. Everything after the
// handshake is frames, in both directions:
//
//	4 bytes  payload length (big endian, header excluded)
//	1 byte   frame type
//	N bytes  payload
//
// Payload integers and floats are little endian (the repository's
// on-disk codec convention); only the frame-length prefix is network
// order. Every request payload begins with a 4-byte request id chosen
// by the client, echoed on every response frame so one connection can
// multiplex concurrent requests. An element on the wire is 56 bytes:
// id uint64 followed by the MBR's six float64 coordinates.
//
// Responses to one request are a sequence of zero or more streaming
// frames (msgElems) closed by exactly one terminator (msgDone, msgOK,
// msgStatsResp or msgErr). A nearest-neighbor query (msgNN) streams
// the same element frames, delivered in nondecreasing distance from
// the query point; the distance itself does not travel — the boxes
// carry full precision, so clients recompute it exactly with
// Box.DistToPoint. Backpressure is the connection itself: the
// server writes result batches as the crawl produces them and blocks
// when the client stops reading, which stalls the crawl between page
// reads — a slow consumer costs buffer space, not index throughput.
// An answer that fits its first element frame (the paper's small
// structural-neighborhood queries) leaves in one write, the terminator
// behind the elements.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"flat"
	"flat/internal/storage"
)

// Version is the protocol version this package speaks. The handshake
// carries it so the format can evolve without breaking old clients:
// a server refuses versions it does not know rather than guessing.
const Version = 1

// handshakeTimeout bounds each side's wait for the other's half of the
// handshake (and the client's connect): a peer that never speaks is
// dropped instead of holding a goroutine. A variable only so a test can
// shorten it; nothing else writes it.
var handshakeTimeout = 10 * time.Second

// magic opens the client hello; a listener receiving anything else is
// being probed by something that is not a flatserve client.
var magic = [4]byte{'F', 'S', 'R', 'V'}

// Frame types. Requests (client to server) are < 0x80, responses have
// the high bit set.
const (
	msgQuery   = 0x01 // reqID u32 | kind u8 | box 6×f64 | limit u32 | flags u8 (reserved, 0)
	msgCancel  = 0x02 // target reqID u32
	msgInsert  = 0x03 // reqID u32 | count u32 | count × element
	msgDelete  = 0x04 // reqID u32 | id u64 | box 6×f64
	msgRebuild = 0x06 // reqID u32
	msgStats   = 0x07 // reqID u32
	msgNN      = 0x08 // reqID u32 | point 3×f64 | k u32 | flags u8 (reserved, 0)

	msgElems     = 0x81 // reqID u32 | count u32 | count × element
	msgDone      = 0x82 // reqID u32 | result count u64 | 6×u64 stats
	msgErr       = 0x83 // reqID u32 | code u8 | message
	msgOK        = 0x84 // reqID u32 | detail u64
	msgStatsResp = 0x85 // reqID u32 | JSON
)

// Query kinds carried by msgQuery, and the kind the server gives a
// msgNN request, which no msgQuery may carry.
const (
	kindRange = 0 // stream every intersecting element
	kindCount = 1 // count them without materializing
	kindNN    = 2 // stream the k nearest elements
)

// Wire error codes carried by msgErr. The mapping is part of the
// protocol: clients reconstruct the sentinel (flat.ErrBusy,
// flat.ErrClosed, context.Canceled, ErrShuttingDown) so errors.Is
// works across the network exactly as it does in-process. Code 4 is
// reserved: never sent, never reused.
const (
	codeBusy       = 1   // flat.ErrBusy: admission or maintenance contention
	codeClosed     = 2   // flat.ErrClosed: the index is gone
	codeCancelled  = 3   // context.Canceled: explicit Cancel or disconnect
	codeBadRequest = 5   // malformed frame or unknown kind
	codeShutdown   = 6   // ErrShuttingDown: server is draining
	codeOther      = 255 // anything else; message carries the text
)

// ErrShuttingDown is returned for requests that arrive after the
// server has begun its graceful drain: existing streams finish (within
// the drain deadline), new work is refused.
var ErrShuttingDown = errors.New("flatserve: server shutting down")

// badRequest wraps the refusal of a frame the protocol does not allow
// (a bad length, an unknown frame type or query kind, a reserved flag
// bit, a request id already in flight): it travels as codeBadRequest.
type badRequest struct{ error }

// maxPayload bounds a frame's payload so a corrupt or hostile length
// prefix cannot make either side allocate unboundedly. An element batch
// of 128 is ~7 KiB and stats JSON a few hundred bytes; the largest
// frames are element batches and inserts, which maxBatch bounds.
const maxPayload = 8 << 20

const elementWire = 8 + 6*8 // id + MBR corners

// maxBatch is the most elements one frame carries: a request id, a
// count and maxBatch elements fill at most maxPayload bytes:
// Client.Insert refuses more.
const maxBatch = (maxPayload - 8) / elementWire

// frameGrowthCap is the most elements a growing stream frame carries:
// 1 170, the elements that fit 64 KiB of payload behind the request id
// and count.
const frameGrowthCap = (64<<10 - 8) / elementWire

// frameHeader is the length prefix and type byte that open every frame.
const frameHeader = 5

// bodyStart is where a frame's body begins: behind the header and the
// request id that every request and response payload opens with.
const bodyStart = frameHeader + 4

// doneFrame is the length of a whole msgDone frame: header, request id,
// result count and the six stats words.
const doneFrame = bodyStart + 8 + 48

var (
	errBadMagic   = errors.New("flatserve: bad handshake magic")
	errBadVersion = errors.New("flatserve: unsupported protocol version")
	errFrameSize  = errors.New("flatserve: frame exceeds payload limit")
	errShortFrame = errors.New("flatserve: truncated frame payload")
)

// newFrame returns a frame with n body bytes at bodyStart, its header
// reserved for sendFrame and reqID already in place.
func newFrame(reqID uint32, n int) []byte {
	frame := make([]byte, bodyStart+n)
	putU32(frame[frameHeader:], reqID)
	return frame
}

// sendFrame fills in the header of frame (see putHeader) and sends it
// as a single Write, so concurrent writers serialized by a mutex never
// interleave partial frames.
func sendFrame(w io.Writer, typ byte, frame []byte) error {
	if len(frame)-frameHeader > maxPayload {
		return errFrameSize
	}
	putHeader(frame, typ)
	_, err := w.Write(frame)
	return err
}

// putHeader fills in the header of frame, whose first frameHeader bytes
// are reserved for it and whose rest is the payload.
func putHeader(frame []byte, typ byte) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	frame[4] = typ
}

// framePool recycles frame buffers: the server's element batches,
// encoded in place behind a reserved header, and the payloads the
// client and the server's request loop read. It holds *[]byte so that
// Put does not allocate.
var framePool sync.Pool

// getFrame returns a pooled buffer of length n.
func getFrame(n int) *[]byte {
	b, _ := framePool.Get().(*[]byte)
	if b == nil {
		b = new([]byte)
	}
	resizeFrame(b, n)
	return b
}

// resizeFrame sets *b's length to n, reallocating it when its capacity
// is short; the bytes are not kept.
func resizeFrame(b *[]byte, n int) {
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
}

// putFrame returns a buffer from getFrame; nothing may read it after.
func putFrame(b *[]byte) {
	if b != nil {
		framePool.Put(b)
	}
}

// frameSource is a connection reader that supplies readFrame's
// buffers, so a frame read through it allocates nothing once framePool
// is warm: the header lands in hdr and the payload in a pooled buffer,
// left in last. Each readFrame replaces last, so its owner first hands
// the previous buffer back with putFrame or passes it on to whatever
// still reads the payload.
type frameSource struct {
	io.Reader
	hdr  [frameHeader]byte
	last *[]byte
}

// readFrame reads one frame through src: the header lands in src.hdr
// and the payload in a pooled buffer, left in src.last (see
// frameSource).
func readFrame(src *frameSource) (typ byte, payload []byte, err error) {
	src.last = nil
	if _, err := io.ReadFull(src.Reader, src.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(src.hdr[:4])
	if n > maxPayload {
		return 0, nil, errFrameSize
	}
	src.last = getFrame(int(n))
	payload = *src.last
	if _, err := io.ReadFull(src.Reader, payload); err != nil {
		// A header without its payload is a torn frame, not a clean EOF.
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return src.hdr[4], payload, nil
}

func putU32(b []byte, v uint32)  { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64)  { binary.LittleEndian.PutUint64(b, v) }
func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getU32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// putBox encodes an MBR as six little-endian float64s (min then max).
func putBox(b []byte, m flat.MBR) {
	putF64(b[0:], m.Min.X)
	putF64(b[8:], m.Min.Y)
	putF64(b[16:], m.Min.Z)
	putF64(b[24:], m.Max.X)
	putF64(b[32:], m.Max.Y)
	putF64(b[40:], m.Max.Z)
}

func getBox(b []byte) flat.MBR {
	return flat.MBR{
		Min: flat.V(getF64(b[0:]), getF64(b[8:]), getF64(b[16:])),
		Max: flat.V(getF64(b[24:]), getF64(b[32:]), getF64(b[40:])),
	}
}

func putElement(b []byte, e flat.Element) {
	putU64(b[0:], e.ID)
	putBox(b[8:], e.Box)
}

func getElement(b []byte) flat.Element {
	return flat.Element{ID: getU64(b[0:]), Box: getBox(b[8:])}
}

// codeFor maps an error to its wire code and message. Inverse of
// errFor; together they make sentinel matching transparent across the
// connection.
func codeFor(err error) (byte, string) {
	switch {
	case errors.Is(err, flat.ErrBusy):
		return codeBusy, err.Error()
	case errors.Is(err, flat.ErrClosed):
		return codeClosed, err.Error()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return codeCancelled, err.Error()
	case errors.Is(err, ErrShuttingDown):
		return codeShutdown, err.Error()
	case errors.As(err, new(badRequest)):
		return codeBadRequest, err.Error()
	}
	return codeOther, err.Error()
}

// errFor reconstructs a client-side error from a wire code, wrapping
// the matching sentinel so errors.Is(err, flat.ErrBusy) and friends
// hold on the client exactly as they would in-process.
func errFor(code byte, msg string) error {
	switch code {
	case codeBusy:
		return fmt.Errorf("flatserve: %s: %w", msg, flat.ErrBusy)
	case codeClosed:
		return fmt.Errorf("flatserve: %s: %w", msg, flat.ErrClosed)
	case codeCancelled:
		return fmt.Errorf("flatserve: %s: %w", msg, context.Canceled)
	case codeShutdown:
		return fmt.Errorf("flatserve: %s: %w", msg, ErrShuttingDown)
	case codeBadRequest:
		return fmt.Errorf("flatserve: bad request: %s", msg)
	}
	return fmt.Errorf("flatserve: server error: %s", msg)
}

// putQueryStats packs a flat.QueryStats into the six u64 slots of a
// msgDone frame (Results travels separately as the result count).
func putQueryStats(b []byte, st flat.QueryStats) {
	putU64(b[0:], uint64(st.RecordsVisited))
	putU64(b[8:], uint64(st.PagesVisited))
	putU64(b[16:], st.Reads.Reads[storage.CatSeedInternal])
	putU64(b[24:], st.Reads.Reads[storage.CatMetadata])
	putU64(b[32:], st.Reads.Reads[storage.CatObject])
	putU64(b[40:], st.TotalReads)
}

func getQueryStats(b []byte) flat.QueryStats {
	return flat.QueryStats{
		RecordsVisited: int(getU64(b[0:])),
		PagesVisited:   int(getU64(b[8:])),
		Reads: storage.Stats{Reads: [storage.NumCategories]uint64{
			storage.CatSeedInternal: getU64(b[16:]),
			storage.CatMetadata:     getU64(b[24:]),
			storage.CatObject:       getU64(b[32:]),
		}},
		TotalReads: getU64(b[40:]),
	}
}
