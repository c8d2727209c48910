package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flat"
	"flat/internal/geom"
	"flat/internal/serve"
)

const (
	readClients = 2   // never more connections than this box's two CPUs
	verifyOps   = 200 // answers checked against the oracle before timing
	shards      = 4
)

// rig is one set-up system under test: generated inputs, a built index
// directory and a flatserve child serving it, warmed up.
type rig struct {
	w     workload
	d     *dataset
	dir   string
	srv   *child
	boxes []geom.MBR // the workload's range/count query set
	// expect[k][i] is the result count query i of kind k returned during
	// warm-up; the timed phase holds every later answer to it.
	expect [numOpKinds][]int
	setup  time.Duration // generate + build + pre-stage + server start + warm-up

	// Traced runs only: copies of the index as built (an empty log) and
	// with the standard delta staged, taken before the server touched it.
	clean, staged string
}

// close kills the server and removes the index directory.
func (r *rig) close() {
	r.srv.kill()
	os.RemoveAll(r.dir)
}

// buildIndex bulkloads the serving configuration — four shards, page
// format v2, full 4 KiB pages, a write-ahead log — into dir.
func buildIndex(d *dataset, dir string) error {
	els := append([]geom.Element(nil), d.base...) // the build reorders in place
	sx, err := flat.BuildSharded(els, &flat.ShardedOptions{
		Shards: shards, PageFormat: flat.PageFormatV2, Dir: dir, World: d.world, WAL: true,
	})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	return sx.Close()
}

// stageInto stages mixed_rw's pre-timing delta into the index at dir
// through the library and flushes it once, so that a server started on
// dir replays that log (part of setup_s) without the set-up paying one
// fsync per staged delete.
func stageInto(dir string, d *dataset) error {
	sx, err := flat.OpenShardedWithOptions(dir, &flat.ShardedOptions{WAL: true})
	if err != nil {
		return err
	}
	err = sx.StageInsert(d.stagedIns...)
	for _, e := range d.stagedDel {
		if err != nil {
			break
		}
		err = sx.StageDelete(e.ID, e.Box)
	}
	if err == nil {
		err = sx.Flush()
	}
	if err != nil {
		sx.Close()
		return fmt.Errorf("pre-stage: %w", err)
	}
	return sx.Close()
}

// setUp generates the inputs, builds the index, starts the server and
// runs the warm-up pass, timing all of it.
func setUp(cfg *config, w workload) (*rig, error) {
	t0 := time.Now()
	maxWrites := 0
	if w.mixed {
		// The timed phase at its fixed rate, and the ladder's share.
		maxWrites = int(cfg.phase.Seconds()*writesPerSecond) + ladderOps(w, cfg.phase) + 1
	}
	if cfg.trace {
		maxWrites = max(maxWrites, probeWrites) // the leaf probes write on every workload
	}
	d := generate(cfg.seed, cfg.n, maxWrites)
	dir, err := os.MkdirTemp(cfg.tmp, "index-")
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, d: d, dir: dir, boxes: d.sn}
	if w.lss {
		r.boxes = d.lss
	}
	if err := r.build(cfg); err != nil {
		r.close()
		return nil, err
	}
	if r.srv, err = cfg.startServer(dir); err != nil {
		r.close()
		return nil, err
	}
	if err := r.warmUp(); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setup = time.Since(t0)
	return r, nil
}

func (r *rig) build(cfg *config) (err error) {
	if err := buildIndex(r.d, r.dir); err != nil {
		return err
	}
	if cfg.trace {
		if r.clean, err = copyDir(r.dir, filepath.Join(cfg.tmp, "clean")); err != nil {
			return err
		}
	}
	if r.w.mixed {
		if err := stageInto(r.dir, r.d); err != nil {
			return err
		}
	}
	if cfg.trace {
		if r.staged, err = copyDir(r.dir, filepath.Join(cfg.tmp, "staged")); err != nil {
			return err
		}
		if !r.w.mixed {
			return stageInto(r.staged, r.d)
		}
	}
	return nil
}

// doRead runs one read and drains it. ttfr is when the first element —
// or, for an empty result or a count, the single reply — reached the
// caller. collect, when non-nil, receives the elements.
func (r *rig) doRead(ctx context.Context, c *serve.Client, kind opKind, idx int, collect *[]geom.Element) (n int, ttfr, lat time.Duration, err error) {
	t0 := time.Now()
	if kind == opCount {
		cnt, _, err := c.Count(ctx, r.boxes[idx], serve.QueryOptions{})
		lat = time.Since(t0)
		return int(cnt), lat, lat, err
	}
	var st *serve.Stream
	if kind == opNN {
		st, err = c.NN(ctx, r.d.points[idx], nnK)
	} else {
		st, err = c.Range(ctx, r.boxes[idx], serve.QueryOptions{})
	}
	if err != nil {
		return 0, 0, 0, err
	}
	for {
		e, ok := st.Next()
		if n == 0 {
			ttfr = time.Since(t0)
		}
		if !ok {
			break
		}
		n++
		if collect != nil {
			*collect = append(*collect, e)
		}
	}
	return n, ttfr, time.Since(t0), st.Err()
}

// warmUp runs every query of the workload once, split over the read
// connections, and records each result count.
func (r *rig) warmUp() error {
	ctx := context.Background()
	sets := map[opKind]int{r.w.kind: len(r.boxes)}
	if r.w.mixed {
		sets[opNN] = len(r.d.points)
	}
	for kind, n := range sets {
		r.expect[kind] = make([]int, n)
		err := eachClient(r.srv.addr, readClients, func(c int, cl *serve.Client) error {
			for i := c * n / readClients; i < (c+1)*n/readClients; i++ {
				got, _, _, err := r.doRead(ctx, cl, kind, i, nil)
				if err != nil {
					return fmt.Errorf("%v %d: %w", kind, i, err)
				}
				r.expect[kind][i] = got
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// dial opens n connections to the server. The caller closes them.
func dial(addr string, n int) ([]*serve.Client, error) {
	clients := make([]*serve.Client, 0, n)
	for len(clients) < n {
		cl, err := serve.Dial(addr)
		if err != nil {
			closeAll(clients)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		clients = append(clients, cl)
	}
	return clients, nil
}

func closeAll(clients []*serve.Client) {
	for _, cl := range clients {
		cl.Close()
	}
}

// runAll runs fn on every connection concurrently and joins the errors.
// A panic in fn is returned as an error so the caller's deferred
// clean-up still runs.
func runAll(clients []*serve.Client, fn func(c int, cl *serve.Client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[c] = fmt.Errorf("client %d panicked: %v", c, p)
				}
			}()
			errs[c] = fn(c, cl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// eachClient dials n connections, runs fn on each concurrently, and
// closes them.
func eachClient(addr string, n int, fn func(c int, cl *serve.Client) error) error {
	clients, err := dial(addr, n)
	if err != nil {
		return err
	}
	defer closeAll(clients)
	return runAll(clients, fn)
}

// verify checks the workload's first verifyOps answers against the
// brute-force model over one connection.
func (r *rig) verify(m *model) error {
	ctx := context.Background()
	return eachClient(r.srv.addr, 1, func(_ int, cl *serve.Client) error {
		var got []geom.Element
		for i := 0; i < verifyOps; i++ {
			kind, idx := r.readOp(0, i)
			got = got[:0]
			n, _, _, err := r.doRead(ctx, cl, kind, idx, &got)
			if err != nil {
				return fmt.Errorf("%v %d: %w", kind, idx, err)
			}
			switch kind {
			case opCount:
				err = m.checkCount(r.boxes[idx], n)
			case opNN:
				err = m.checkNN(r.d.points[idx], nnK, got)
			default:
				err = m.checkRange(r.boxes[idx], got)
			}
			if err != nil {
				return err
			}
		}
		// The whole world in one count: nothing lost, nothing extra.
		n, _, err := cl.Count(ctx, r.d.world.Expand(1), serve.QueryOptions{})
		if err != nil {
			return fmt.Errorf("world count: %w", err)
		}
		if int(n) != m.live {
			return fmt.Errorf("world count %d, model holds %d live elements", n, m.live)
		}
		return nil
	})
}

// readOp is the closed loop's step-th operation on client c: the query
// sets cycle, client c starting half a set in; mixed_rw alternates an
// SN range query with a k-NN query.
func (r *rig) readOp(c, step int) (opKind, int) {
	if r.w.mixed {
		if step%2 == 1 {
			return opNN, (step / 2) % len(r.d.points)
		}
		step /= 2
	}
	return r.w.kind, (c*len(r.boxes)/readClients + step) % len(r.boxes)
}

// answerOK holds a timed-phase result count to the warm-up's. Beside a
// writer the count may only grow: timed deletes remove only elements
// the timed phase itself inserted.
func (r *rig) answerOK(kind opKind, idx, got int) bool {
	want := r.expect[kind][idx]
	if r.w.mixed && kind != opNN {
		return got >= want
	}
	return got == want
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	phase     time.Duration
	samples   []sample
	attempted int
	failed    int
	writes    int           // writes acknowledged, a prefix of the schedule
	serverCPU time.Duration // over the whole phase
	clientCPU time.Duration
	peakRSS   int64
	diskBytes int64
	stats     *serve.ServerStats
}

// timedPhase drives the workload for phase: the closed-loop read
// clients back to back and, on mixed_rw, the open-loop writer.
func (r *rig) timedPhase(phase time.Duration) (*phaseResult, error) {
	ctx := context.Background()
	res := &phaseResult{phase: phase}
	readers, writers := readClients, 0
	if r.w.mixed {
		readers, writers = 1, 1 // connection A reads, connection B writes
	}
	clients, err := dial(r.srv.addr, readers+writers)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)
	perClient := make([][]sample, len(clients))

	cpu0, err := r.srv.cpu()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	err = runAll(clients, func(c int, cl *serve.Client) (err error) {
		if c >= readers {
			perClient[c], err = r.writeLoop(ctx, cl, start, phase)
			res.writes = len(perClient[c])
			return err
		}
		for step := 0; time.Since(start) < phase; step++ {
			kind, idx := r.readOp(c, step)
			n, ttfr, lat, err := r.doRead(ctx, cl, kind, idx, nil)
			s := sample{end: int64(time.Since(start)), lat: int64(lat), ttfr: int64(ttfr), kind: kind}
			if err != nil || !r.answerOK(kind, idx, n) {
				s.lat, s.ttfr, s.failed = int64(phase), int64(phase), true
			}
			perClient[c] = append(perClient[c], s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu1, err := r.srv.cpu()
	if err != nil {
		return nil, err
	}
	res.serverCPU = cpu1 - cpu0
	res.clientCPU = selfCPU() - self0
	for c := range perClient {
		res.samples = append(res.samples, perClient[c]...)
	}
	for _, s := range res.samples {
		if s.failed {
			res.failed++
		}
	}
	res.attempted = len(res.samples)

	if res.peakRSS, err = r.srv.peakRSS(); err != nil {
		return nil, err
	}
	if res.diskBytes, err = dirBytes(r.dir); err != nil {
		return nil, err
	}
	err = eachClient(r.srv.addr, 1, func(_ int, cl *serve.Client) (err error) {
		res.stats, err = cl.Stats(ctx)
		return err
	})
	return res, err
}

// writeLoop is the open loop: write i is due at start + i/rate whether
// or not its predecessors were quick, is sent as soon after that as the
// connection is free, and is timed from when it was due — so a stall
// charges every write it delayed. A write that errors ends the run:
// the model can no longer say what the index holds.
func (r *rig) writeLoop(ctx context.Context, cl *serve.Client, start time.Time, phase time.Duration) ([]sample, error) {
	var out []sample
	for i := 0; ; i++ {
		due := openLoopDue(i, writesPerSecond)
		if due >= phase {
			return out, nil
		}
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		w := r.d.writes[i]
		var err error
		if w.kind == opInsert {
			err = cl.Insert(ctx, []geom.Element{w.el})
		} else {
			err = cl.Delete(ctx, w.el.ID, w.el.Box)
		}
		if err != nil {
			return out, fmt.Errorf("write %d (%v of element %d): %w", i, w.kind, w.el.ID, err)
		}
		end := time.Since(start)
		out = append(out, sample{end: int64(end), lat: int64(end - due), ttfr: int64(end - due), late: int64(sent - due), kind: w.kind})
	}
}

// crashAndRebuild is mixed_rw's epilogue: kill -9 the server, restart
// it on the same directory, check that every acknowledged write is
// visible, fold the delta in with one timed Rebuild, and check again.
// (kill -9 leaves the OS page cache intact, so this is process-level
// durability: what flatserve acknowledged, a new flatserve finds.)
func (r *rig) crashAndRebuild(cfg *config, m *model) (time.Duration, error) {
	r.srv.kill()
	var err error
	if r.srv, err = cfg.startServer(r.dir); err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	if err := r.verify(m); err != nil {
		return 0, fmt.Errorf("after kill -9 and restart: %w", err)
	}
	var rebuild time.Duration
	err = eachClient(r.srv.addr, 1, func(_ int, cl *serve.Client) error {
		t0 := time.Now()
		_, err := cl.Rebuild(context.Background())
		rebuild = time.Since(t0)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("rebuild: %w", err)
	}
	if err := r.verify(m); err != nil {
		return 0, fmt.Errorf("after rebuild: %w", err)
	}
	return rebuild, nil
}
