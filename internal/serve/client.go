package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"net"
	"sync"
	"time"

	"flat"
)

// Client is a flatserve connection: one TCP socket multiplexing
// concurrent requests by id. A demultiplexing reader goroutine routes
// response frames to per-request channels; a consumer that stops
// pulling its Stream eventually fills its channel, which stalls the
// reader, which stalls the server's writes, which stalls the crawl —
// backpressure end to end with no protocol-level flow control.
//
// Methods are safe for concurrent use. Note the shared reader: a
// stream left unread indefinitely stalls the whole connection, so
// clients that interleave slow streams with other traffic should use
// one Client per stream.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan respFrame
	readErr error         // terminal reader error, set before closing done
	done    chan struct{} // closed when the reader exits

	closeOnce sync.Once
	closing   chan struct{} // closed by Close: frees a reader parked on an unread stream
}

type respFrame struct {
	typ  byte
	body []byte  // payload after the request id
	buf  *[]byte // the pooled buffer body lies in; its consumer returns it
}

// streamWindow is the per-request channel depth: how many response
// frames the reader will buffer for a slow consumer before it stops
// reading the socket (and backpressure reaches the server).
const streamWindow = 4

// Dial connects and performs the protocol handshake. Connecting and the
// hello/accept exchange each give up after handshakeTimeout, so a peer
// that accepts and never answers (a wrong port, a wedged server) costs
// the caller an error, not a goroutine parked for good.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	return newClient(conn)
}

// newClient runs the client half of the handshake on conn and starts
// the connection's reader; it closes conn on failure.
func newClient(conn net.Conn) (*Client, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hello := append(append([]byte{}, magic[:]...), Version)
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	var accept [1]byte
	if _, err := io.ReadFull(conn, accept[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if accept[0] != Version {
		conn.Close()
		return nil, errBadVersion
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:    conn,
		pending: make(map[uint32]chan respFrame),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down. In-flight requests fail with the
// connection error; the server cancels their crawls on disconnect.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.closing) })
	return c.conn.Close()
}

// readLoop reads every response through one 64 KiB buffered reader
// into pooled payloads. Each routed frame's buffer passes to its
// consumer, which returns it once it has decoded past it; frames nobody
// will consume go straight back to the pool.
func (c *Client) readLoop() {
	src := &frameSource{Reader: bufio.NewReaderSize(c.conn, 64<<10)}
	var err error
	for {
		putFrame(src.last) // the previous frame, unless it was routed
		var typ byte
		var payload []byte
		typ, payload, err = readFrame(src)
		if err != nil {
			break
		}
		if len(payload) < 4 {
			err = errShortFrame
			break
		}
		reqID := getU32(payload)
		c.mu.Lock()
		ch := c.pending[reqID]
		c.mu.Unlock()
		if ch == nil {
			continue // response to an unregistered (cancelled) request
		}
		// Blocking send: the consumer's unread window is the read
		// window for the whole connection.
		select {
		case ch <- respFrame{typ: typ, body: payload[4:], buf: src.last}:
			src.last = nil // its consumer returns it
			continue
		case <-c.closing:
			// Closed with a stream left unread: nobody will drain ch.
			err = net.ErrClosed
		}
		break
	}
	putFrame(src.last)
	c.mu.Lock()
	c.readErr = err
	for _, ch := range c.pending {
		close(ch)
	}
	c.pending = nil
	c.mu.Unlock()
	close(c.done)
}

// register allocates a request id and its response channel.
func (c *Client) register() (uint32, chan respFrame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return 0, nil, c.connErr()
	}
	c.nextID++
	id := c.nextID
	ch := make(chan respFrame, streamWindow)
	c.pending[id] = ch
	return id, ch, nil
}

func (c *Client) unregister(id uint32) {
	c.mu.Lock()
	if c.pending != nil {
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// connErr describes a dead connection; called with c.mu held or after
// done is closed.
func (c *Client) connErr() error {
	if c.readErr == nil || errors.Is(c.readErr, io.EOF) || errors.Is(c.readErr, net.ErrClosed) {
		return fmt.Errorf("flatserve: connection closed: %w", flat.ErrClosed)
	}
	return fmt.Errorf("flatserve: connection error: %w", c.readErr)
}

func (c *Client) send(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return writeFrame(c.conn, typ, payload)
}

// unary sends one request and waits for its single terminator frame.
func (c *Client) unary(ctx context.Context, typ byte, body []byte) (respFrame, error) {
	id, ch, err := c.register()
	if err != nil {
		return respFrame{}, err
	}
	defer c.unregister(id)
	payload := make([]byte, 4+len(body))
	putU32(payload, id)
	copy(payload[4:], body)
	if err := c.send(typ, payload); err != nil {
		return respFrame{}, err
	}
	select {
	case fr, ok := <-ch:
		if !ok {
			return respFrame{}, c.connErr()
		}
		return fr, nil
	case <-ctx.Done():
		return respFrame{}, ctx.Err()
	}
}

// write sends one write request and decodes its msgOK / msgErr
// terminator: the count the server acknowledged, or its error.
func (c *Client) write(ctx context.Context, typ byte, body []byte) (uint64, error) {
	fr, err := c.unary(ctx, typ, body)
	if err != nil {
		return 0, err
	}
	defer putFrame(fr.buf)
	switch fr.typ {
	case msgOK:
		if len(fr.body) < 8 {
			return 0, errShortFrame
		}
		return getU64(fr.body), nil
	case msgErr:
		return 0, decodeErr(fr.body)
	}
	return 0, fmt.Errorf("flatserve: unexpected frame type 0x%02x", fr.typ)
}

func decodeErr(body []byte) error {
	if len(body) < 1 {
		return errShortFrame
	}
	return errFor(body[0], string(body[1:]))
}

// QueryOptions tune one remote query.
type QueryOptions struct {
	// Limit stops the query after this many results (<= 0: unlimited);
	// the server-side crawl aborts early, exactly like flat.WithLimit.
	// A limit above math.MaxUint32 does not fit the wire and is refused.
	Limit int
}

// wireBound encodes a result bound (a query limit, an NN k) as the
// wire's uint32: n <= 0 is unlimited, and a bound the field cannot carry
// is refused instead of wrapped into a smaller one.
func wireBound(what string, n int) (uint32, error) {
	if n <= 0 {
		return 0, nil
	}
	if uint64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("flatserve: %s %d does not fit the protocol's 32-bit field", what, n)
	}
	return uint32(n), nil
}

// sendQuery sends one msgQuery of the given kind and returns the Stream
// its response frames arrive on.
func (c *Client) sendQuery(ctx context.Context, kind byte, box flat.MBR, o QueryOptions) (*Stream, error) {
	limit, err := wireBound("limit", o.Limit)
	if err != nil {
		return nil, err
	}
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	body := make([]byte, 4+1+48+4+1)
	putU32(body, id)
	body[4] = kind
	putBox(body[5:], box)
	putU32(body[53:], limit)
	body[57] = 0 // flags, reserved
	if err := c.send(msgQuery, body); err != nil {
		c.unregister(id)
		return nil, err
	}
	return &Stream{c: c, ctx: ctx, id: id, ch: ch}, nil
}

// Range starts a streaming range query. Results arrive incrementally
// through the returned Stream; an admission rejection surfaces as
// flat.ErrBusy on the first Next (or from All's error position).
func (c *Client) Range(ctx context.Context, box flat.MBR, o QueryOptions) (*Stream, error) {
	return c.sendQuery(ctx, kindRange, box, o)
}

// NN starts a streaming k-nearest-neighbor query: the k indexed
// elements nearest to p arrive through the Stream in nondecreasing
// distance from p (k <= 0 streams the whole index in distance order; a
// k above math.MaxUint32 is refused). The distance itself does not
// travel — element boxes carry full precision, so callers recover it
// exactly with e.Box.DistToPoint(p). Cancel (or a done ctx) aborts the
// server-side traversal mid-stream.
func (c *Client) NN(ctx context.Context, p flat.Vec3, k int) (*Stream, error) {
	wk, err := wireBound("k", k)
	if err != nil {
		return nil, err
	}
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	body := make([]byte, 4+24+4+1)
	putU32(body, id)
	putF64(body[4:], p.X)
	putF64(body[12:], p.Y)
	putF64(body[20:], p.Z)
	putU32(body[28:], wk)
	body[32] = 0 // flags, reserved
	if err := c.send(msgNN, body); err != nil {
		c.unregister(id)
		return nil, err
	}
	return &Stream{c: c, ctx: ctx, id: id, ch: ch}, nil
}

// Count runs a count query: the crawl happens server-side, only the
// count and its page-read stats travel back — a Stream whose first
// frame is its terminator.
func (c *Client) Count(ctx context.Context, box flat.MBR, o QueryOptions) (uint64, flat.QueryStats, error) {
	s, err := c.sendQuery(ctx, kindCount, box, o)
	if err != nil {
		return 0, flat.QueryStats{}, err
	}
	if _, ok := s.Next(); ok { // a count query carries no element frames
		s.Cancel()
		s.abandon(fmt.Errorf("flatserve: unexpected frame type 0x%02x", msgElems))
	}
	return s.count, s.stats, s.err
}

// Insert stages elements into the index's delta and flushes
// its write-ahead log; when Insert returns nil the write is durable
// (it survives kill -9 and is replayed on the next open). One insert
// travels in one frame, which holds at most 149 796 elements; a larger
// one is refused before anything is sent.
func (c *Client) Insert(ctx context.Context, els []flat.Element) error {
	if len(els) > maxBatch {
		return fmt.Errorf("flatserve: insert of %d elements exceeds the %d elements one frame carries; split it", len(els), maxBatch)
	}
	body := make([]byte, 4+len(els)*elementWire)
	putU32(body, uint32(len(els)))
	for i, e := range els {
		putElement(body[4+i*elementWire:], e)
	}
	_, err := c.write(ctx, msgInsert, body)
	return err
}

// Delete stages the removal of one element (identified by its full
// id+box pair, like flat.StageDelete) and flushes the WAL.
func (c *Client) Delete(ctx context.Context, id uint64, box flat.MBR) error {
	body := make([]byte, elementWire)
	putElement(body, flat.Element{ID: id, Box: box})
	_, err := c.write(ctx, msgDelete, body)
	return err
}

// Flush forces a WAL flush of previously staged updates.
func (c *Client) Flush(ctx context.Context) error {
	_, err := c.write(ctx, msgFlush, nil)
	return err
}

// Rebuild folds the staged delta into the bulkloaded pages; it returns
// the number of shards rebuilt, or flat.ErrBusy under in-flight
// queries (the caller retries, exactly as in-process).
func (c *Client) Rebuild(ctx context.Context) (int, error) {
	n, err := c.write(ctx, msgRebuild, nil)
	return int(n), err
}

// Stats fetches the server's admin view.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	fr, err := c.unary(ctx, msgStats, nil)
	if err != nil {
		return nil, err
	}
	defer putFrame(fr.buf)
	switch fr.typ {
	case msgStatsResp:
		st := new(ServerStats)
		if err := json.Unmarshal(fr.body, st); err != nil {
			return nil, err
		}
		return st, nil
	case msgErr:
		return nil, decodeErr(fr.body)
	}
	return nil, fmt.Errorf("flatserve: unexpected frame type 0x%02x", fr.typ)
}

// cancel asks the server to stop a request. Best effort: the response
// race is handled by the stream's terminator handling.
func (c *Client) cancel(id uint32) {
	payload := make([]byte, 4)
	putU32(payload, id)
	c.send(msgCancel, payload)
}

// Stream is one in-flight range query. Not safe for concurrent use.
type Stream struct {
	c   *Client
	ctx context.Context
	id  uint32

	ch    chan respFrame
	frame *[]byte // pooled buffer of the current msgElems batch
	buf   []byte  // undecoded remainder of that batch
	n     int     // elements left in buf
	done  bool
	count uint64
	stats flat.QueryStats
	err   error
}

// Next returns the next element. ok is false when the stream is
// finished — by completion, error or cancellation; Err and Stats are
// valid from then on.
func (s *Stream) Next() (flat.Element, bool) {
	for {
		if s.n > 0 {
			e := getElement(s.buf)
			s.buf = s.buf[elementWire:]
			if s.n--; s.n == 0 {
				s.release()
			}
			return e, true
		}
		if s.done {
			return flat.Element{}, false
		}
		select {
		case fr, ok := <-s.ch:
			if !ok {
				s.finish(s.c.connErr())
				return flat.Element{}, false
			}
			s.frame = fr.buf
			s.take(fr)
			if s.n == 0 {
				s.release()
			}
		case <-s.ctx.Done():
			s.c.cancel(s.id)
			s.abandon(s.ctx.Err())
			return flat.Element{}, false
		}
	}
}

// take applies one response frame: an element batch to decode, or a
// terminator that finishes the stream.
func (s *Stream) take(fr respFrame) {
	switch fr.typ {
	case msgElems:
		if len(fr.body) < 4 {
			s.finish(errShortFrame)
			return
		}
		n := int(getU32(fr.body))
		if len(fr.body) != 4+n*elementWire {
			s.finish(errShortFrame)
			return
		}
		s.buf, s.n = fr.body[4:], n
	case msgDone:
		if len(fr.body) < 8+48 {
			s.finish(errShortFrame)
			return
		}
		s.count = getU64(fr.body)
		s.stats = getQueryStats(fr.body[8:])
		s.stats.Results = int(s.count)
		s.finish(nil)
	case msgErr:
		s.finish(decodeErr(fr.body))
	default:
		s.finish(fmt.Errorf("flatserve: unexpected frame type 0x%02x", fr.typ))
	}
}

// release returns the current batch's buffer to the pool; the stream
// reads nothing of it afterwards.
func (s *Stream) release() {
	putFrame(s.frame)
	s.frame, s.buf = nil, nil
}

// abandon detaches the consumer from a stream it quit early (context
// cancellation): a background drainer keeps pulling the stream's
// channel until the server's terminator arrives, so the connection's
// demultiplexing reader — which sends blocking — can never wedge on a
// channel nobody reads, then retires the request id.
func (s *Stream) abandon(err error) {
	if s.done {
		return
	}
	s.done = true
	s.err = err
	s.n = 0
	s.release()
	ch, c, id := s.ch, s.c, s.id
	go func() {
		for fr := range ch {
			putFrame(fr.buf)
			if fr.typ == msgDone || fr.typ == msgErr {
				break
			}
		}
		c.unregister(id)
	}()
}

func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	s.err = err
	s.c.unregister(s.id)
}

// Cancel sends a Cancel frame for this stream. The server stops the
// crawl between page reads and terminates the stream with a
// context.Canceled error (observed via Err after Next returns false) —
// unless completion won the race, in which case the stream ends
// normally.
func (s *Stream) Cancel() {
	if !s.done {
		s.c.cancel(s.id)
	}
}

// All drains the stream as an iterator; the terminal error, if any,
// arrives in the last pair, mirroring flat.Results.All.
func (s *Stream) All() iter.Seq2[flat.Element, error] {
	return func(yield func(flat.Element, error) bool) {
		for {
			e, ok := s.Next()
			if !ok {
				if s.err != nil {
					yield(flat.Element{}, s.err)
				}
				return
			}
			if !yield(e, nil) {
				s.Cancel()
				// Drain to the terminator so the request id retires and
				// late frames are not misrouted to a future request.
				for {
					if _, ok := s.Next(); !ok {
						return
					}
				}
			}
		}
	}
}

// Err returns the stream's terminal error: nil after clean completion,
// a wrapped flat.ErrBusy after an admission rejection, a wrapped
// context.Canceled after cancellation.
func (s *Stream) Err() error { return s.err }

// Count returns the server-reported result count (valid after the
// stream ends cleanly).
func (s *Stream) Count() uint64 { return s.count }

// Stats returns the query's page-read statistics (valid after the
// stream ends cleanly).
func (s *Stream) Stats() flat.QueryStats { return s.stats }
