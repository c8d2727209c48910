package serve

import (
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

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxInflight is the global admission budget: the number of queries
	// allowed to crawl concurrently across all connections. The N+1th
	// query is rejected with flat.ErrBusy. <= 0 means 64.
	MaxInflight int
	// MaxConnQueries bounds the queries one connection may multiplex at
	// once, so a single client cannot monopolize the global budget.
	// <= 0 means 16.
	MaxConnQueries int
	// StreamBatch is the number of elements per msgElems frame. Larger
	// batches amortize framing, smaller ones reduce the latency to the
	// first result. <= 0 means 128; values above 149 796, the most one
	// frame carries, are clamped to it.
	StreamBatch int
	// DrainTimeout bounds Shutdown's grace period: queries still running
	// when it expires are cancelled. <= 0 means 5 seconds.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxConnQueries <= 0 {
		c.MaxConnQueries = 16
	}
	if c.StreamBatch <= 0 {
		c.StreamBatch = 128
	}
	c.StreamBatch = min(c.StreamBatch, maxBatch)
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
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
	Flushes      int64 // explicit WAL flushes
	Rebuilds     int64 // rebuild requests that succeeded
	StatsCalls   int64 // stats endpoint hits
	PagesRead    int64 // page reads charged to finished queries (complete or cancelled)
}

// ServerStats is the admin/stats payload: the index's size, the
// admission state, per-operation counters, page-cache occupancy and the
// staged delta. It travels as JSON inside msgStatsResp, so fields are
// stable protocol surface.
type ServerStats struct {
	Elements    int
	Partitions  int
	SizeBytes   uint64
	Inflight    int // queries currently holding admission slots
	MaxInflight int
	Counters    Counters
	CachePages  int              // resident pages in the shared page cache
	CacheCap    int              // page-cache capacity (0: unbounded)
	Delta       *flat.DeltaStats `json:",omitempty"`
}

// Server serves one opened index over TCP. It does not own the index:
// the caller opens it, passes it in, and closes it after Shutdown
// returns (flatserve's main does exactly that, flushing the WAL in
// between).
type Server struct {
	ix  *flat.Index
	cfg Config
	adm *admission

	ln       net.Listener
	baseCtx  context.Context // parent of every connection context
	stopAll  context.CancelFunc
	draining atomic.Bool
	wg       sync.WaitGroup // one per live connection handler and per query goroutine

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	rangeQueries atomic.Int64
	countQueries atomic.Int64
	nnQueries    atomic.Int64
	rejected     atomic.Int64
	cancelled    atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	flushes      atomic.Int64
	rebuilds     atomic.Int64
	statsCalls   atomic.Int64
	pagesRead    atomic.Int64
}

// NewServer wraps an opened index in a server. Call Serve to accept.
func NewServer(ix *flat.Index, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		ix:      ix,
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxInflight),
		baseCtx: ctx,
		stopAll: cancel,
		conns:   make(map[net.Conn]struct{}),
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
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Shutdown drains the server: stop accepting, refuse new queries with
// ErrShuttingDown, give in-flight streams DrainTimeout to finish, then
// cancel whatever is left, close every connection and wait for every
// handler and query goroutine to exit. Safe to call once; the index
// itself is left open for the caller, with no query of this server's
// still in flight on it.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// Grace period: poll the admission pool until the in-flight queries
	// drain or the deadline passes.
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for s.adm.inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Cancel stragglers and drop the connections; handlers notice both.
	s.stopAll()
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
		Flushes:      s.flushes.Load(),
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
	st.CachePages, st.CacheCap = s.ix.CacheStats()
	if d, err := s.ix.DeltaStats(); err == nil {
		st.Delta = &d
	}
	return st
}

// conn is the per-connection state: the read loop plus the registry of
// in-flight queries it can cancel, and the write mutex that keeps
// concurrent response streams from interleaving frames.
type srvConn struct {
	s    *Server
	c    net.Conn
	ctx  context.Context // cancelled on disconnect or server stop
	stop context.CancelFunc

	wmu sync.Mutex // serializes whole frames onto the socket

	mu       sync.Mutex
	inflight map[uint32]context.CancelFunc // reqID -> query cancel
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
	ctx, cancel := context.WithCancel(s.baseCtx)
	sc := &srvConn{s: s, c: conn, ctx: ctx, stop: cancel, inflight: make(map[uint32]context.CancelFunc)}
	// The read loop exiting — disconnect, torn frame, server stop —
	// cancels every query this connection still has crawling.
	defer cancel()
	sc.readLoop()
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
	// serves the whole loop.
	src := &frameSource{Reader: sc.c}
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
			if cancel, ok := sc.inflight[reqID]; ok {
				cancel()
			}
			sc.mu.Unlock()
		case msgInsert:
			sc.handleWrite(reqID, body, sc.s.insert)
		case msgDelete:
			sc.handleWrite(reqID, body, sc.s.delete)
		case msgFlush:
			sc.handleWrite(reqID, body, sc.s.flush)
		case msgRebuild:
			sc.handleWrite(reqID, body, sc.s.rebuild)
		case msgStats:
			sc.handleStats(reqID)
		default:
			sc.writeErr(reqID, badRequest{fmt.Errorf("unknown frame type 0x%02x", typ)})
		}
	}
}

// write sends one response frame; errors are swallowed because the
// read loop observes the broken connection on its own and tears the
// queries down.
func (sc *srvConn) write(typ byte, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return writeFrame(sc.c, typ, payload)
}

// send is write for a frame built in place behind a reserved header
// (see sendFrame).
func (sc *srvConn) send(typ byte, frame []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return sendFrame(sc.c, typ, frame)
}

func (sc *srvConn) writeErr(reqID uint32, err error) {
	code, msg := codeFor(err)
	buf := make([]byte, 5+len(msg))
	putU32(buf, reqID)
	buf[4] = code
	copy(buf[5:], msg)
	sc.write(msgErr, buf)
}

func (sc *srvConn) writeOK(reqID uint32, detail uint64) {
	buf := make([]byte, 12)
	putU32(buf, reqID)
	putU64(buf[4:], detail)
	sc.write(msgOK, buf)
}

// startQuery parses a msgQuery and runs it in its own goroutine, so
// the read loop stays responsive to Cancel frames while the crawl
// streams. Admission (the global slot) and registration (the
// per-connection cancel entry) both happen inside the goroutine, in
// one lexical scope with their releases.
func (sc *srvConn) startQuery(reqID uint32, body []byte) {
	if len(body) != 1+48+4+1 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("bad query frame length %d", len(body))})
		return
	}
	kind := body[0]
	box := getBox(body[1:])
	limit := int(getU32(body[49:]))
	if kind != kindRange && kind != kindCount {
		sc.writeErr(reqID, badRequest{fmt.Errorf("unknown query kind %d", kind)})
		return
	}
	if body[53] != 0 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("unknown query flags 0x%02x", body[53])})
		return
	}
	sc.admit(reqID, func(qctx context.Context) {
		sc.runQuery(qctx, reqID, kind, box, limit)
	})
}

// startNN parses a msgNN and runs the nearest-neighbor stream through
// the same admission pipeline as startQuery.
func (sc *srvConn) startNN(reqID uint32, body []byte) {
	if len(body) != 24+4+1 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("bad nn frame length %d", len(body))})
		return
	}
	p := flat.V(getF64(body[0:]), getF64(body[8:]), getF64(body[16:]))
	k := int(getU32(body[24:]))
	if body[28] != 0 {
		sc.writeErr(reqID, badRequest{fmt.Errorf("unknown nn flags 0x%02x", body[28])})
		return
	}
	sc.admit(reqID, func(qctx context.Context) {
		sc.s.nnQueries.Add(1)
		sc.streamSession(reqID, sc.s.ix.NN(qctx, p, k), true)
	})
}

// admit runs one streaming request through the shared admission
// pipeline — drain check, request id not already in flight,
// per-connection multiplex cap, cancellable registration, then the
// global slot — and executes run on its own
// goroutine, so the read loop stays responsive to Cancel frames while
// the traversal streams. The registration is undone in a defer of that
// goroutine; the slot is held by adm.run for exactly run's duration.
func (sc *srvConn) admit(reqID uint32, run func(qctx context.Context)) {
	if sc.s.draining.Load() {
		sc.writeErr(reqID, ErrShuttingDown)
		return
	}
	// Per-connection multiplexing cap, separate from the global budget.
	qctx, qcancel := context.WithCancel(sc.ctx)
	sc.mu.Lock()
	var refusal error
	if _, dup := sc.inflight[reqID]; dup {
		// Overwriting the entry would orphan the first query's cancel
		// func and keep len(inflight) — the cap — from ever growing.
		refusal = badRequest{fmt.Errorf("request id %d is already in flight on this connection", reqID)}
	} else if len(sc.inflight) >= sc.s.cfg.MaxConnQueries {
		refusal = fmt.Errorf("connection query limit (%d) reached: %w", sc.s.cfg.MaxConnQueries, flat.ErrBusy)
	} else {
		sc.inflight[reqID] = qcancel
	}
	sc.mu.Unlock()
	if refusal != nil {
		qcancel()
		sc.writeErr(reqID, refusal)
		return
	}

	// Shutdown waits for the query goroutines too: once it returns, none
	// still holds an admission slot or the index's query guard, so the
	// caller may Close the index. This Add cannot race Shutdown's Wait —
	// it runs on the handler goroutine, which holds a count of its own.
	sc.s.wg.Add(1)
	go func() {
		defer sc.s.wg.Done()
		defer func() {
			sc.mu.Lock()
			delete(sc.inflight, reqID)
			sc.mu.Unlock()
			qcancel()
		}()
		if !sc.s.adm.run(func() { run(qctx) }) {
			sc.s.rejected.Add(1)
			sc.writeErr(reqID, fmt.Errorf("server at max in-flight queries (%d): %w", sc.s.adm.capacity(), flat.ErrBusy))
		}
	}()
}

// runQuery executes one admitted query and streams its results. The
// crawl stops between page reads when qctx is cancelled (Cancel frame,
// disconnect, server drain) and when a write into a dead socket fails.
func (sc *srvConn) runQuery(qctx context.Context, reqID uint32, kind byte, box flat.MBR, limit int) {
	switch kind {
	case kindRange:
		sc.s.rangeQueries.Add(1)
	case kindCount:
		sc.s.countQueries.Add(1)
	}
	sc.streamSession(reqID, sc.s.ix.Query(qctx, box, flat.WithLimit(limit)), kind == kindRange)
}

// streamSession drains one Results session to the connection: element
// batches (when materialize is set; a count query only tallies), then
// the msgDone terminator carrying the result count and query stats.
// Range queries and nearest-neighbor streams share this tail — NN
// batches simply arrive in nondecreasing distance order because the
// session produces them that way.
//
// Elements are encoded straight into one pooled frame buffer behind its
// header, request id and count (batchStart bytes), and each batch goes
// out from there in one Write: nothing is copied or allocated per frame.
func (sc *srvConn) streamSession(reqID uint32, session *flat.Results, materialize bool) {
	const batchStart = frameHeader + 4 + 4
	var fb *[]byte
	var frame []byte
	if materialize {
		fb = getFrame(batchStart + sc.s.cfg.StreamBatch*elementWire)
		defer putFrame(fb)
		frame = *fb
		putU32(frame[frameHeader:], reqID)
	}
	off, n := batchStart, 0 // write offset and elements in the current batch
	var count uint64
	var iterErr error
	for e, err := range session.All() {
		if err != nil {
			iterErr = err
			break
		}
		count++
		if !materialize {
			continue
		}
		putElement(frame[off:], e)
		off += elementWire
		if n++; n == sc.s.cfg.StreamBatch {
			putU32(frame[frameHeader+4:], uint32(n))
			if sc.send(msgElems, frame[:off]) != nil {
				// Client is gone; stop pulling the crawl.
				iterErr = context.Canceled
				break
			}
			off, n = batchStart, 0
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
	if n > 0 {
		putU32(frame[frameHeader+4:], uint32(n))
		if sc.send(msgElems, frame[:off]) != nil {
			sc.s.cancelled.Add(1)
			return
		}
	}
	done := make([]byte, 4+8+48)
	putU32(done, reqID)
	putU64(done[4:], count)
	putQueryStats(done[12:], stats)
	sc.write(msgDone, done)
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

func (s *Server) flush([]byte) (uint64, error) {
	if err := s.ix.Flush(); err != nil {
		return 0, err
	}
	s.flushes.Add(1)
	return 0, nil
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
	buf := make([]byte, 4+len(blob))
	putU32(buf, reqID)
	copy(buf[4:], blob)
	sc.write(msgStatsResp, buf)
}
