package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flat"
	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/serve"
	"flat/internal/shard"
	"flat/internal/storage"
)

// The layer ladder. Tracing inside the program is a later change, so
// each layer is timed from outside, at its public entry point: the same
// T operations are replayed by one goroutine, warm, against a fresh
// copy of the index at successively lower rungs —
//
//	serve  in-process serve.Server on loopback + serve.Client
//	flat   flat.ShardedIndex, the calls the server makes
//	shard  shard.Set, the calls flat makes
//	core   core.Index per surviving shard, through a spying page pool
//
// — and a layer's self time is its rung's mean minus the mean of the
// rung below, so the self times sum to the serve rung by construction.
// The core rung replays range and count operations only; an NN query's
// or a write's time below the shard rung stays in shard.self. Below
// core, storage's share is replayed rather than timed in place: the
// pages the crawl read are read again, and decoded again, in one tight
// loop each, because a clock read per page costs more than the page.

// ladderOps returns T, about a fifth of the run length per rung. T is a
// function of the workload and the run length, never of a measurement,
// so counts taken over the T operations repeat exactly.
func ladderOps(w workload, phase time.Duration) int {
	return max(int(w.ladderRate*phase.Seconds()/5), 64)
}

// mixedReadsPerWrite is the ladder's stand-in for mixed_rw's two
// connections: one write after every eight reads, about the ratio the
// timed phase reaches at 200 writes/s.
const mixedReadsPerWrite = 8

type ladderOp struct {
	kind opKind
	idx  int // into the query boxes, the NN points or the write schedule
}

// ladderSeq is the deterministic operation sequence every rung replays.
func (r *rig) ladderSeq(t int) []ladderOp {
	ops := make([]ladderOp, 0, t)
	reads, writes := 0, 0
	for len(ops) < t {
		if r.w.mixed && len(ops)%(mixedReadsPerWrite+1) == mixedReadsPerWrite {
			ops = append(ops, ladderOp{r.d.writes[writes].kind, writes})
			writes++
			continue
		}
		kind, idx := r.readOp(0, reads)
		ops = append(ops, ladderOp{kind, idx})
		reads++
	}
	return ops
}

// span is one timed interval of the traced run. Times are nanoseconds
// since the trace began; Parent indexes the span that caused this one
// (-1: none) and Op is the operation's position in the ladder sequence,
// shared by every span of that operation across rungs.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, parent, op int32) int32 {
	tr.spans = append(tr.spans, span{Name: name, Start: int64(time.Since(tr.t0)), Parent: parent, Op: op})
	return int32(len(tr.spans) - 1)
}

func (tr *tracer) end(i int32) time.Duration {
	s := &tr.spans[i]
	s.End = int64(time.Since(tr.t0))
	return time.Duration(s.End - s.Start)
}

// maxChildOps bounds the trace file: every operation's span at every
// rung is written, but page-read child spans only for the first
// maxChildOps operations of the core rung.
const maxChildOps = 256

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// Dropping spans shifts indexes: at maps old to new, and a kept
	// child's parent (always earlier, always kept) is remapped through it.
	keep := make([]span, 0, len(tr.spans))
	at := make([]int32, len(tr.spans))
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			if s.Op >= maxChildOps {
				continue
			}
			s.Parent = at[s.Parent]
		}
		at[i] = int32(len(keep))
		keep = append(keep, s)
	}
	blob, err := json.Marshal(keep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// spyPool is the page pool of the core rung's traced replay: the set's
// own ConcurrentPool, with every read recorded as a child span of the
// operation in flight and its page id kept.
type spyPool struct {
	storage.Pool
	tr     *tracer
	parent int32
	op     int32
	ids    []storage.PageID
}

func (p *spyPool) Read(id storage.PageID) ([]byte, error) { return p.ReadInto(id, nil) }

func (p *spyPool) ReadInto(id storage.PageID, local *storage.Stats) ([]byte, error) {
	s := p.tr.begin("storage.pool.read", p.parent, p.op)
	page, err := p.Pool.ReadInto(id, local)
	p.tr.end(s)
	p.ids = append(p.ids, id)
	return page, err
}

// rung is one level of the ladder, open on its own copy of the index.
type rung struct {
	name string
	// skip names operations the rung cannot express (they cost it nothing).
	skip func(opKind) bool
	// do runs one operation and returns its result count. It gets the
	// operation's position in the sequence and its span (-1 when warming).
	do    func(o ladderOp, i, span int32) (int, error)
	close func()

	busy    [numOpKinds]time.Duration
	ops     [numOpKinds]int
	results int    // elements returned or counted, all operations
	mallocs uint64 // heap objects allocated during the timed replay
	bytes   uint64
}

func (g *rung) total() (d time.Duration) {
	for _, b := range g.busy {
		d += b
	}
	return d
}

// ladder is the traced replay of one workload: the sequence, the index
// directory every rung copies, and what each rung measured.
type ladder struct {
	r   *rig
	cfg *config
	tr  *tracer
	dir string
	ops []ladderOp

	serve, flat, shard, core *rung
	shardSet, coreSet        *shard.Set       // those rungs' sets, for what follows the replay
	pageIDs                  []storage.PageID // every page the traced core replay read, in order
	shardsOpened             int              // Σ len(Prune(q)) over the core rung
	recordsVisited           int
	objectPages              int
	coldReads                uint64 // Σ page reads with the cache dropped before each query
	coldOps                  int
	deltaStaged              int
	leaf                     leafResult
}

const (
	// ladderChunk is how many operations one rung replays before the
	// next rung takes its turn at the same operations. The rungs are
	// interleaved, not run one after the other, because this box's speed
	// drifts within seconds: a difference of two rungs' means is only a
	// layer's cost if both rungs saw the same machine.
	ladderChunk = 64
	// coldOpsMax is how many operations the cold pass covers.
	coldOpsMax = 256
)

func never(opKind) bool { return false }

// runLadder replays the workload's first t operations at every rung —
// a warm pass over the reads at each, then the timed replay in
// interleaved chunks, one span per operation, every chunk bracketed by
// MemStats readings — then the traced core replay, the cold pass and the
// leaf probes that need the pages the core rung read.
func (r *rig) runLadder(cfg *config, tr *tracer, dir string, t int) (*ladder, error) {
	l := &ladder{r: r, cfg: cfg, tr: tr, dir: dir, ops: r.ladderSeq(t)}
	var rungs []*rung
	defer func() {
		for _, g := range rungs {
			g.close()
		}
	}()
	for _, open := range []struct {
		name string
		fn   func(dir string) (*rung, error)
		to   **rung
	}{{"serve", l.openServe, &l.serve}, {"flat", l.openFlat, &l.flat}, {"shard", l.openShard, &l.shard}, {"core", l.openCore, &l.core}} {
		scratch, err := copyDir(dir, filepath.Join(cfg.tmp, "ladder-"+open.name))
		if err != nil {
			return nil, err
		}
		g, err := open.fn(scratch)
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", open.name, err)
		}
		g.name = open.name
		*open.to = g
		rungs = append(rungs, g)
	}
	for _, g := range rungs {
		for i, o := range l.ops {
			if o.kind.isWrite() || g.skip(o.kind) {
				continue
			}
			if _, err := g.do(o, int32(i), -1); err != nil {
				return nil, fmt.Errorf("%s rung, warm pass: %w", g.name, err)
			}
		}
	}
	for from := 0; from < len(l.ops); from += ladderChunk {
		to := min(from+ladderChunk, len(l.ops))
		for _, g := range rungs {
			if err := l.replay(g, from, to); err != nil {
				return nil, err
			}
		}
	}
	l.deltaStaged = l.shardSet.DeltaStats().Inserts
	if err := l.afterCore(); err != nil {
		return nil, err
	}
	return l, nil
}

// replay times operations [from, to) at one rung.
func (l *ladder) replay(g *rung, from, to int) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := from; i < to; i++ {
		o := l.ops[i]
		if g.skip(o.kind) {
			continue
		}
		s := l.tr.begin(g.name, -1, int32(i))
		n, err := g.do(o, int32(i), s)
		g.busy[o.kind] += l.tr.end(s)
		if err != nil {
			return fmt.Errorf("%s rung, op %d (%v): %w", g.name, i, o.kind, err)
		}
		g.ops[o.kind]++
		g.results += n
	}
	runtime.ReadMemStats(&after)
	g.mallocs += after.Mallocs - before.Mallocs
	g.bytes += after.TotalAlloc - before.TotalAlloc
	return nil
}

// openServe is everything a client pays except crossing a process
// boundary: an in-process serve.Server on loopback and a serve.Client.
func (l *ladder) openServe(dir string) (*rung, error) {
	ctx := context.Background()
	sx, err := flat.OpenShardedWithOptions(dir, &flat.ShardedOptions{Mmap: true, WAL: true})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(sx, serve.Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		sx.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	stop := func() { srv.Shutdown(); <-served; sx.Close() }
	cl, err := serve.Dial(srv.Addr().String())
	if err != nil {
		stop()
		return nil, err
	}
	one := make([]geom.Element, 1)
	return &rung{
		skip:  never,
		close: func() { cl.Close(); stop() },
		do: func(o ladderOp, _, _ int32) (int, error) {
			switch o.kind {
			case opInsert:
				one[0] = l.r.d.writes[o.idx].el
				return 0, cl.Insert(ctx, one)
			case opDelete:
				e := l.r.d.writes[o.idx].el
				return 0, cl.Delete(ctx, e.ID, e.Box)
			}
			n, _, _, err := l.r.doRead(ctx, cl, o.kind, o.idx, nil)
			return n, err
		},
	}, nil
}

// openFlat makes the calls serve makes: a Query or NN session drained
// through All (a count query only tallies, as in the server), and
// StageInsert or StageDelete followed by Flush.
func (l *ladder) openFlat(dir string) (*rung, error) {
	ctx := context.Background()
	sx, err := flat.OpenShardedWithOptions(dir, &flat.ShardedOptions{Mmap: true, WAL: true})
	if err != nil {
		return nil, err
	}
	return &rung{
		skip:  never,
		close: func() { sx.Close() },
		do: func(o ladderOp, _, _ int32) (int, error) {
			var session *flat.Results
			switch o.kind {
			case opInsert:
				if err := sx.StageInsert(l.r.d.writes[o.idx].el); err != nil {
					return 0, err
				}
				return 0, sx.Flush()
			case opDelete:
				e := l.r.d.writes[o.idx].el
				if err := sx.StageDelete(e.ID, e.Box); err != nil {
					return 0, err
				}
				return 0, sx.Flush()
			case opNN:
				session = sx.NN(ctx, l.r.d.points[o.idx], nnK)
			default:
				session = sx.Query(ctx, l.r.boxes[o.idx], flat.WithLimit(0))
			}
			n := 0
			for _, err := range session.All() {
				if err != nil {
					return n, err
				}
				n++
			}
			return n, nil
		},
	}, nil
}

// openShard makes the calls flat makes.
func (l *ladder) openShard(dir string) (*rung, error) {
	ctx := context.Background()
	set, err := shard.OpenSet(dir, shard.OpenOptions{Mmap: true, WAL: true})
	if err != nil {
		return nil, err
	}
	l.shardSet = set
	return &rung{
		skip:  never,
		close: func() { set.Close() },
		do: func(o ladderOp, _, _ int32) (int, error) {
			n := 0
			switch o.kind {
			case opInsert:
				if err := set.StageInsert(l.r.d.writes[o.idx].el); err != nil {
					return 0, err
				}
				return 0, set.Flush()
			case opDelete:
				e := l.r.d.writes[o.idx].el
				if err := set.StageDelete(e.ID, e.Box); err != nil {
					return 0, err
				}
				return 0, set.Flush()
			case opNN:
				// The stream runs until stopped; k only sizes the delta snapshot.
				_, err := set.NNQuery(ctx, l.r.d.points[o.idx], nnK, func(geom.Element, float64) bool { n++; return n < nnK })
				return n, err
			}
			_, err := set.StreamQuery(ctx, l.r.boxes[o.idx], shard.StreamOptions{}, func(geom.Element) bool { n++; return true })
			return n, err
		},
	}, nil
}

func notRange(k opKind) bool { return k != opRange && k != opCount }

// crawl runs one range or count operation the way the core rung does:
// each surviving shard's crawl directly, without the staged overlay
// (that is shard's work). It returns the result count, the merged crawl
// statistics and how many shards survived the prune.
func (l *ladder) crawl(views []*core.Index, o ladderOp) (n int, merged core.QueryStats, opened int, err error) {
	q := l.r.boxes[o.idx]
	sel := l.coreSet.Prune(q)
	for _, s := range sel {
		st, err := views[s].Query(context.Background(), q, func(geom.Element) bool { n++; return true })
		merged.Add(st)
		if err != nil {
			return n, merged, len(sel), err
		}
	}
	return n, merged, len(sel), nil
}

func (l *ladder) openCore(dir string) (*rung, error) {
	set, err := shard.OpenSet(dir, shard.OpenOptions{Mmap: true, WAL: true})
	if err != nil {
		return nil, err
	}
	l.coreSet = set
	views := make([]*core.Index, set.NumShards())
	for i := range views {
		views[i] = set.Shard(i)
	}
	return &rung{
		skip:  notRange,
		close: func() { set.Close() },
		do: func(o ladderOp, _, _ int32) (int, error) {
			n, _, _, err := l.crawl(views, o)
			return n, err
		},
	}, nil
}

// afterCore runs what follows the timed replay on the core rung's warm
// set: the traced replay, the cold pass and the leaf probes.
func (l *ladder) afterCore() error {
	set := l.coreSet
	// The same replay once more through the spy, for the page ids, the
	// counts and the page-read child spans. Its time is not used: two
	// clock reads per page read would be charged to core.
	spy := &spyPool{Pool: set.Pool(), tr: l.tr}
	spied := make([]*core.Index, set.NumShards())
	for i := range spied {
		spied[i] = set.Shard(i).WithPool(spy)
	}
	for i, o := range l.ops {
		if notRange(o.kind) {
			continue
		}
		spy.parent, spy.op = l.tr.begin("core.traced", -1, int32(i)), int32(i)
		_, st, opened, err := l.crawl(spied, o)
		l.tr.end(spy.parent)
		if err != nil {
			return fmt.Errorf("traced core replay, op %d: %w", i, err)
		}
		l.shardsOpened += opened
		l.recordsVisited += st.RecordsVisited
		l.objectPages += st.PagesVisited
	}
	l.pageIDs = spy.ids

	// The paper's metric, exact: page reads with the cache dropped
	// before each query.
	for _, o := range l.ops {
		if notRange(o.kind) {
			continue
		}
		if l.coldOps == coldOpsMax {
			break
		}
		set.DropCache()
		st, err := set.StreamQuery(context.Background(), l.r.boxes[o.idx], shard.StreamOptions{}, func(geom.Element) bool { return true })
		if err != nil {
			return err
		}
		l.coldReads += st.TotalReads
		l.coldOps++
	}
	return l.probeLeaves(set)
}
