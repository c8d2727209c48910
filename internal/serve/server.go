package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flat"
)

// DrainGrace is Shutdown's grace period: queries still running when it
// expires are cancelled.
const DrainGrace = 5 * time.Second

// Config tunes a Server. Its budgets are fixed: a server admits 64
// queries at once, 16 of them from one connection (which therefore
// keeps at most 16 query workers), and gives in-flight queries
// DrainGrace to finish on Shutdown. Only this package's tests
// set the fields, to reach the limits at test scale; the zero value is
// what every server runs with.
type Config struct {
	// maxInflight is the global admission budget: the number of queries
	// allowed to crawl concurrently across all connections. The N+1th
	// query is rejected with flat.ErrBusy (0: 64).
	maxInflight int
	// maxConnQueries bounds the queries one connection may multiplex at
	// once, so a single client cannot monopolize the global budget
	// (0: 16).
	maxConnQueries int
	// streamBatch is the number of elements in a stream's first
	// msgElems frame (0: 128). Each later frame carries twice the last,
	// up to 1 170 elements (64 KiB of payload).
	streamBatch int
	// drainTimeout bounds Shutdown's grace period (0: DrainGrace).
	drainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.maxInflight <= 0 {
		c.maxInflight = 64
	}
	if c.maxConnQueries <= 0 {
		c.maxConnQueries = 16
	}
	if c.streamBatch <= 0 {
		c.streamBatch = 128
	}
	if c.drainTimeout <= 0 {
		c.drainTimeout = DrainGrace
	}
	return c
}

// Counters are the server's per-operation totals since start, exposed
// through the stats endpoint. All monotonic.
type Counters struct {
	RangeQueries int64 // streaming range queries admitted
	CountQueries int64 // count queries admitted
	NNQueries    int64 // streaming nearest-neighbor queries admitted
	Rejected     int64 // queries refused with flat.ErrBusy (admission)
	Cancelled    int64 // queries stopped by Cancel frames or disconnects
	Inserts      int64 // elements staged for insertion
	Deletes      int64 // elements staged for deletion
	Rebuilds     int64 // rebuild requests that succeeded
	StatsCalls   int64 // stats endpoint hits
	PagesRead    int64 // page reads charged to finished queries (complete or cancelled)
}

// ServerStats is the admin/stats payload: the index's size, the
// admission state, per-operation counters and the staged delta. It travels as JSON inside msgStatsResp, so fields are
// stable protocol surface.
type ServerStats struct {
	Elements    int
	Partitions  int
	SizeBytes   uint64
	Inflight    int // queries currently holding admission slots
	MaxInflight int
	Counters    Counters
	Delta       *flat.DeltaStats `json:",omitempty"`
}

// Server serves one opened index over TCP. It does not own the index:
// the caller opens it, passes it in, and closes it after Shutdown
// returns (flatserve's main does exactly that, flushing the WAL in
// between).
//
// Each connection reads its requests on one goroutine and runs its
// queries on workers it keeps for its lifetime: an admitted query goes
// to an idle worker, and a new worker starts only when none is idle.
// A query's record is its own context and is reused by the
// connection's next query, its answer's frames are encoded into pooled
// buffers, and a small answer leaves in one write, so a warm server
// allocates nothing per range, count or nearest-neighbor query.
type Server struct {
	ix  *flat.Index
	cfg Config
	adm *admission

	ln       net.Listener
	draining atomic.Bool
	wg       sync.WaitGroup // one per live connection handler and per query worker

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	rangeQueries atomic.Int64
	countQueries atomic.Int64
	nnQueries    atomic.Int64
	rejected     atomic.Int64
	cancelled    atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	rebuilds     atomic.Int64
	statsCalls   atomic.Int64
	pagesRead    atomic.Int64
}

// NewServer wraps an opened index in a server. Call Serve to accept.
func NewServer(ix *flat.Index, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		ix:    ix,
		cfg:   cfg,
		adm:   newAdmission(cfg.maxInflight),
		conns: make(map[net.Conn]struct{}),
	}
}

// Listen starts listening on addr ("host:port"; ":0" picks a free
// port) without accepting yet; Addr is valid afterwards.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until the listener closes (Shutdown).
// It blocks; run it in a goroutine. The returned error is nil on a
// clean shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			// Shutdown won the race between Accept and registration.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		// Counted before the unlock: once Shutdown has closed the
		// registered connections, its wg.Wait covers every handler.
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown drains the server: stop accepting, refuse new queries with
// ErrShuttingDown, give in-flight streams DrainGrace to finish, then
// close every connection, which cancels whatever is left, and wait for
// every handler and query worker to exit. Safe to call once; the index
// itself is left open for the caller, with no query of this server's
// still in flight on it.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// Grace period: poll the admission pool until the in-flight queries
	// drain or the deadline passes.
	deadline := time.Now().Add(s.cfg.drainTimeout)
	for s.adm.inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Drop the connections: each read loop exits and cancels the
	// stragglers of its connection.
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) counters() Counters {
	return Counters{
		RangeQueries: s.rangeQueries.Load(),
		CountQueries: s.countQueries.Load(),
		NNQueries:    s.nnQueries.Load(),
		Rejected:     s.rejected.Load(),
		Cancelled:    s.cancelled.Load(),
		Inserts:      s.inserts.Load(),
		Deletes:      s.deletes.Load(),
		Rebuilds:     s.rebuilds.Load(),
		StatsCalls:   s.statsCalls.Load(),
		PagesRead:    s.pagesRead.Load(),
	}
}

// Stats snapshots the admin view (also reachable over the wire via
// Client.Stats).
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Elements:    s.ix.Len(),
		Partitions:  s.ix.NumPartitions(),
		SizeBytes:   s.ix.SizeBytes(),
		Inflight:    s.adm.inflight(),
		MaxInflight: s.adm.capacity(),
		Counters:    s.counters(),
	}
	if d, err := s.ix.DeltaStats(); err == nil {
		st.Delta = &d
	}
	return st
}

// srvConn is the per-connection state: the read loop, the registry of
// in-flight queries it can cancel, the workers that run them, and the
// write mutex that keeps concurrent response streams from interleaving
// frames.
type srvConn struct {
	s *Server
	c net.Conn

	wmu sync.Mutex // serializes whole frames onto the socket

	// work hands an admitted query to an idle worker. Only the read loop
	// sends on it, starts workers (and counts them in workers) and
	// closes it.
	work    chan *query
	workers int

	mu       sync.Mutex
	inflight map[uint32]*query // reqID -> running query
	free     []*query          // finished queries' records, reused by the next ones
}

// query is one admitted range, count or nearest-neighbor request, and
// the context its crawl runs under: Done is closed when a Cancel frame
// names the request or the connection's read loop exits. A connection
// reuses its records, so a query costs no allocation: a record's done
// channel is remade only after it was closed. Nothing derives a context
// from a query (the crawl only polls Done), so the record needs no
// registry of children.
type query struct {
	id    uint32
	kind  byte     // kindRange, kindCount or kindNN
	box   flat.MBR // a nearest-neighbor query's point is box.Min
	limit int      // a nearest-neighbor query's k
	done  chan struct{}
}

func (q *query) Deadline() (time.Time, bool) { return time.Time{}, false }
func (q *query) Done() <-chan struct{}       { return q.done }
func (q *query) Value(any) any               { return nil }

func (q *query) Err() error {
	select {
	case <-q.done:
		return context.Canceled
	default:
		return nil
	}
}

// cancel closes q's done channel unless it is closed already; the
// caller holds the connection's mu.
func (q *query) cancel() {
	if q.Err() == nil {
		close(q.done)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	if err := s.handshake(conn); err != nil {
		return
	}
	sc := &srvConn{s: s, c: conn, work: make(chan *query), inflight: make(map[uint32]*query)}
	sc.readLoop()
	// The read loop exiting — disconnect, torn frame, server stop —
	// cancels every query this connection still has crawling, and
	// closing work lets each worker exit once its query is answered.
	sc.mu.Lock()
	for _, q := range sc.inflight {
		q.cancel()
	}
	sc.mu.Unlock()
	close(sc.work)
}

// handshake validates the client hello and answers with the negotiated
// version (or 0 for refusal).
func (s *Server) handshake(conn net.Conn) error {
	var hello [5]byte
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	if [4]byte(hello[:4]) != magic {
		return errBadMagic
	}
	if hello[4] != Version {
		conn.Write([]byte{0})
		return errBadVersion
	}
	_, err := conn.Write([]byte{Version})
	return err
}

func (sc *srvConn) readLoop() {
	// Requests are decoded before dispatch returns — queries copy their
	// box, writes their elements — so one pooled payload at a time
	// serves the whole loop. The buffered reader takes a small request's
	// header and payload in one read.
	src := &frameSource{Reader: bufio.NewReaderSize(sc.c, 4<<10)}
	defer func() { putFrame(src.last) }()
	for {
		putFrame(src.last) // the previous request is dispatched
		typ, payload, err := readFrame(src)
		if err != nil {
			return
		}
		if len(payload) < 4 {
			return // every request carries at least a request id
		}
		reqID := getU32(payload)
		body := payload[4:]
		switch typ {
		case msgQuery:
			sc.startQuery(reqID, body)
		case msgNN:
			sc.startNN(reqID, body)
		case msgCancel:
			// payload is the *target* request id.
			sc.mu.Lock()
			if q, ok := sc.inflight[reqID]; ok {
				q.cancel()
			}
			sc.mu.Unlock()
		case msgInsert:
			sc.handleWrite(reqID, body, sc.s.insert)
		case msgDelete:
			sc.handleWrite(reqID, body, sc.s.delete)
		case msgRebuild:
			sc.handleWrite(reqID, body, sc.s.rebuild)
		case msgStats:
			sc.handleStats(reqID)
		default:
			sc.writeErr(reqID, badRequest{fmt.Errorf("unknown frame type 0x%02x", typ)})
		}
	}
}

// send sends one response frame, built in place behind a reserved
// header (see sendFrame). Callers that only answer may ignore its error:
// the read loop observes the broken connection on its own and tears the
// queries down.
func (sc *srvConn) send(typ byte, frame []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return sendFrame(sc.c, typ, frame)
}

// write sends whole frames, their headers filled in, in one Write.
func (sc *srvConn) write(frames []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	_, err := sc.c.Write(frames)
	return err
}

func (sc *srvConn) writeErr(reqID uint32, err error) {
	code, msg := codeFor(err)
	frame := newFrame(reqID, 1+len(msg))
	frame[bodyStart] = code
	copy(frame[bodyStart+1:], msg)
	sc.send(msgErr, frame)
}

func (sc *srvConn) writeOK(reqID uint32, detail uint64) {
	frame := newFrame(reqID, 8)
	putU64(frame[bodyStart:], detail)
	sc.send(msgOK, frame)
}

// startQuery parses a msgQuery and admits it.
func (sc *srvConn) startQuery(reqID uint32, body []byte) {
	if len(body) != 1+48+4+1 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("bad query frame length %d", len(body))})
		return
	}
	kind := body[0]
	if kind != kindRange && kind != kindCount {
		sc.writeErr(reqID, badRequest{fmt.Errorf("unknown query kind %d", kind)})
		return
	}
	if body[53] != 0 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("unknown query flags 0x%02x", body[53])})
		return
	}
	sc.admit(reqID, kind, getBox(body[1:]), int(getU32(body[49:])))
}

// startNN parses a msgNN and admits it through the same pipeline as
// startQuery.
func (sc *srvConn) startNN(reqID uint32, body []byte) {
	if len(body) != 24+4+1 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("bad nn frame length %d", len(body))})
		return
	}
	if body[28] != 0 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("unknown nn flags 0x%02x", body[28])})
		return
	}
	p := flat.V(getF64(body[0:]), getF64(body[8:]), getF64(body[16:]))
	sc.admit(reqID, kindNN, flat.MBR{Min: p, Max: p}, int(getU32(body[24:])))
}

// admit runs one query request through the shared admission pipeline —
// drain check, request id not already in flight, per-connection
// multiplex cap, cancellable registration — and hands it to an idle
// worker of the connection, starting one when none is idle, so the
// read loop stays responsive to Cancel frames while the traversal
// streams. The worker takes the global slot for the query's run and
// undoes the registration after it.
func (sc *srvConn) admit(reqID uint32, kind byte, box flat.MBR, limit int) {
	if sc.s.draining.Load() {
		sc.writeErr(reqID, ErrShuttingDown)
		return
	}
	sc.mu.Lock()
	var q *query
	var refusal error
	if _, dup := sc.inflight[reqID]; dup {
		// Overwriting the entry would orphan the first query's record
		// and keep len(inflight) — the cap — from ever growing.
		refusal = badRequest{fmt.Errorf("request id %d is already in flight on this connection", reqID)}
	} else if len(sc.inflight) >= sc.s.cfg.maxConnQueries {
		refusal = fmt.Errorf("connection query limit (%d) reached: %w", sc.s.cfg.maxConnQueries, flat.ErrBusy)
	} else {
		if n := len(sc.free); n > 0 {
			q, sc.free = sc.free[n-1], sc.free[:n-1]
		} else {
			q = &query{done: make(chan struct{})}
		}
		if q.Err() != nil {
			q.done = make(chan struct{})
		}
		q.id, q.kind, q.box, q.limit = reqID, kind, box, limit
		sc.inflight[reqID] = q
	}
	sc.mu.Unlock()
	if refusal != nil {
		sc.writeErr(reqID, refusal)
		return
	}

	select {
	case sc.work <- q:
		return
	default:
	}
	if sc.workers == sc.s.cfg.maxConnQueries {
		// No worker is idle and none may start, yet q fits under the
		// cap: a worker has answered its query and is on its way back
		// to work, and takes q at once.
		sc.work <- q
		return
	}
	// Shutdown waits for the workers too: once it returns, none still
	// holds an admission slot or the index's query guard, so the caller
	// may Close the index. This Add cannot race Shutdown's Wait — it runs
	// on the handler goroutine, which holds a count of its own.
	sc.workers++
	sc.s.wg.Add(1)
	go sc.worker(q)
}

// worker runs q, then each query the read loop hands it, until the read
// loop closes work. A query holds a slot of the global budget for
// exactly its run (adm.run), and its registration until it is answered.
func (sc *srvConn) worker(q *query) {
	defer sc.s.wg.Done()
	for ok := true; ok; q, ok = <-sc.work {
		if !sc.s.adm.run(func() { sc.run(q) }) {
			sc.s.rejected.Add(1)
			sc.writeErr(q.id, fmt.Errorf("server at max in-flight queries (%d): %w", sc.s.adm.capacity(), flat.ErrBusy))
		}
		sc.mu.Lock()
		delete(sc.inflight, q.id)
		sc.free = append(sc.free, q)
		sc.mu.Unlock()
	}
}

// run executes one admitted query and streams its results. The crawl
// stops between page reads when q is cancelled (Cancel frame,
// disconnect, server drain) and when a write into a dead socket fails.
func (sc *srvConn) run(q *query) {
	switch q.kind {
	case kindRange:
		sc.s.rangeQueries.Add(1)
		sc.streamSession(q.id, sc.s.ix.Query(q, q.box, flat.WithLimit(q.limit)), true)
	case kindCount:
		sc.s.countQueries.Add(1)
		sc.streamSession(q.id, sc.s.ix.Query(q, q.box, flat.WithLimit(q.limit)), false)
	case kindNN:
		sc.s.nnQueries.Add(1)
		sc.streamSession(q.id, sc.s.ix.NN(q, q.box.Min, q.limit), true)
	}
}

// streamSession drains one Results session to the connection: element
// frames (when materialize is set; a count query only tallies), then
// the msgDone terminator carrying the result count and query stats.
// Range queries and nearest-neighbor streams share this tail — NN
// frames simply arrive in nondecreasing distance order because the
// session produces them that way.
//
// The session's runs are encoded straight into one pooled frame buffer
// behind its header, request id and count (batchStart bytes), and each
// frame goes out from there in one Write: nothing is copied or
// allocated per frame. The buffer keeps doneFrame bytes spare behind
// the largest batch it holds, so the terminator is encoded behind the
// last batch and both leave in one Write; a count query's terminator
// goes out from the same pooled buffer. The first frame carries
// Config.streamBatch elements (128), so the time to the first result
// does not depend on the result's size; each later one twice the last,
// up to frameGrowthCap.
func (sc *srvConn) streamSession(reqID uint32, session *flat.Results, materialize bool) {
	const batchStart = bodyStart + 4
	batch := sc.s.cfg.streamBatch // elements in the current frame
	fb := getFrame(batchStart + batch*elementWire + doneFrame)
	defer putFrame(fb)
	frame := *fb
	putU32(frame[frameHeader:], reqID)
	off, n := batchStart, 0 // write offset and elements in the current frame
	var count uint64
	var iterErr error
runs:
	for run, err := range session.Batches() {
		if err != nil {
			iterErr = err
			break
		}
		count += uint64(len(run))
		if !materialize {
			continue
		}
		for len(run) > 0 {
			k := min(len(run), batch-n)
			for i := range run[:k] {
				putElement(frame[off:], run[i])
				off += elementWire
			}
			run, n = run[k:], n+k
			if n < batch {
				break
			}
			putU32(frame[bodyStart:], uint32(n))
			if sc.send(msgElems, frame[:off]) != nil {
				// Client is gone; stop pulling the crawl.
				iterErr = context.Canceled
				break runs
			}
			off, n = batchStart, 0
			batch = min(2*batch, frameGrowthCap)
			if len(frame) < batchStart+batch*elementWire+doneFrame {
				// Sized for the largest frame once the stream outgrows its
				// first: a long stream reallocates at most once, and a
				// short one never holds more than its first frame needs.
				resizeFrame(fb, batchStart+frameGrowthCap*elementWire+doneFrame)
				frame = *fb
				putU32(frame[frameHeader:], reqID)
			}
		}
	}
	stats := session.Stats()
	sc.s.pagesRead.Add(int64(stats.TotalReads))
	if iterErr != nil {
		if errors.Is(iterErr, context.Canceled) || errors.Is(iterErr, context.DeadlineExceeded) {
			sc.s.cancelled.Add(1)
		}
		sc.writeErr(reqID, iterErr)
		return
	}
	start := off // the terminator alone, unless a batch is left to send
	if n > 0 {
		putU32(frame[bodyStart:], uint32(n))
		putHeader(frame[:off], msgElems)
		start = 0
	}
	done := frame[off : off+doneFrame]
	putU32(done[frameHeader:], reqID)
	putU64(done[bodyStart:], count)
	putQueryStats(done[bodyStart+8:], stats)
	putHeader(done, msgDone)
	if sc.write(frame[start:off+doneFrame]) != nil && n > 0 {
		// The last batch never reached the client: the stream was cut,
		// as when a full batch fails mid-crawl.
		sc.s.cancelled.Add(1)
	}
}

// handleWrite is the one shape of a write request: op runs against the
// index's staged-write surface and its count is acknowledged, or its
// error sent. Write operations run inline in the read loop — one connection
// is a serial channel for writes, which preserves the staging layer's
// last-op-wins ordering.
func (sc *srvConn) handleWrite(reqID uint32, body []byte, op func([]byte) (uint64, error)) {
	acked, err := op(body)
	if err != nil {
		sc.writeErr(reqID, err)
		return
	}
	sc.writeOK(reqID, acked)
}

// insert stages the elements and flushes the WAL before it reports
// them, so an OK means the write survives kill -9: the next open
// replays it from the log.
func (s *Server) insert(body []byte) (uint64, error) {
	if len(body) < 4 {
		return 0, badRequest{errors.New("bad insert frame")}
	}
	n := int(getU32(body))
	body = body[4:]
	if len(body) != n*elementWire {
		return 0, badRequest{fmt.Errorf("insert frame: %d elements but %d payload bytes", n, len(body))}
	}
	els := make([]flat.Element, n)
	for i := range els {
		els[i] = getElement(body[i*elementWire:])
	}
	if err := s.ix.StageInsert(els...); err != nil {
		return 0, err
	}
	if err := s.ix.Flush(); err != nil {
		return 0, err
	}
	s.inserts.Add(int64(n))
	return uint64(n), nil
}

func (s *Server) delete(body []byte) (uint64, error) {
	if len(body) != elementWire {
		return 0, badRequest{errors.New("bad delete frame")}
	}
	e := getElement(body)
	if err := s.ix.StageDelete(e.ID, e.Box); err != nil {
		return 0, err
	}
	if err := s.ix.Flush(); err != nil {
		return 0, err
	}
	s.deletes.Add(1)
	return 1, nil
}

func (s *Server) rebuild([]byte) (uint64, error) {
	rebuilt, err := s.ix.Rebuild()
	if err != nil {
		return 0, err
	}
	s.rebuilds.Add(1)
	return uint64(len(rebuilt)), nil
}

func (sc *srvConn) handleStats(reqID uint32) {
	sc.s.statsCalls.Add(1)
	st := sc.s.Stats()
	blob, err := json.Marshal(st)
	if err != nil {
		sc.writeErr(reqID, err)
		return
	}
	frame := newFrame(reqID, len(blob))
	copy(frame[bodyStart:], blob)
	sc.send(msgStatsResp, frame)
}
