// Package shard implements the spatially-partitioned layer over the
// FLAT index of internal/core.
//
// One FLAT index is bulkloaded in a single pass and lives in a single
// page file — fine for one machine-sized model, but a dead end for the
// roadmap's scale. This package lifts the paper's own bulk-partitioning
// idea one level up: the element set is split into K spatial shards
// along the Hilbert curve (the same curve the Hilbert R-tree baseline
// sorts with), each shard is bulkloaded into its own FLAT index — in
// parallel, since the builds are independent — and a top-level MBR
// directory routes queries to the shards they can touch. The split's
// order is hilbert.SortElements — keys computed once, on every core,
// then one stable keyed sort (str.Sorter, the sort.SliceStable
// permutation) — so which element lands in which shard, and in what
// order its bulkload sees it, is a function of the input alone.
//
// A range query has one executor (StreamQuery, merge.go): the directory
// prunes shards whose bounds do not intersect the query box, the
// surviving shards run the ordinary seed+crawl and are delivered in
// shard order, and the per-shard QueryStats are merged. A range query
// and a k-NN query (nn.go) read the staged delta through one pooled
// snapshot taken in one read lock (view, delta.go). With K=1 the
// whole apparatus degenerates to exactly the bare core index — same
// pages, same ids, same read counts — which is the invariant the tests
// pin down.
//
// Storage is shard-aware but the cache is global: every shard's page
// file hangs behind one storage.MultiPager, and one budgeted
// storage.ConcurrentPool serves them all, so cache memory is bounded
// for the whole sharded index rather than per shard.
//
// Sharding also shrinks the rebuild unit: updates are staged on the
// side and folded in by re-bulkloading only the shards they touch,
// under crash-safe generation-tagged manifests — see rebuild.go.
//
// A set is two values: the generation it serves (the committed manifest
// and the shards opened from it, replaced whole by Rebuild) and the
// staging epoch overlaid on it (delta.go). Every shard is written by one
// bulkload step (bulkloadShards) and restored by one open step
// (OpenSet), and every generation of a directory is published by one
// commit step (commit, manifest.go). The public flat.Index is this set
// at any K >= 1: in memory, or in a directory with a manifest — at K=1
// too.
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/hilbert"
	"flat/internal/storage"
)

// Config configures Build.
type Config struct {
	// Shards is K, the number of spatial shards. 0 or 1 builds a single
	// shard (identical to a bare core index).
	Shards int
	// PageCapacity caps elements per object page (0: a full page); it is
	// passed through to every shard's core.Build.
	PageCapacity int
	// SeedFanout caps seed-tree fanout per shard (0: a full page).
	SeedFanout int
	// PageFormat selects every shard's object-page layout (0:
	// storage.DefaultPageFormat); see core.Options.PageFormat. The format
	// is recorded per shard in the manifest and in each shard's
	// superblock, and rebuilds preserve each shard's format, so it never
	// needs to be supplied again at open time.
	PageFormat storage.PageFormat
	// World is the space the data lives in. Like core.Options.World it
	// may be zero (the data's bounds are used); it also anchors the
	// Hilbert quantization grid along which elements are assigned to
	// shards.
	World geom.MBR
	// Dir, when non-empty, stores the index on disk: one page file per
	// shard plus a manifest, all under this directory.
	Dir string
	// BufferPages bounds the page cache shared by every shard
	// (<= 0: unbounded). The budget is global: K shards together hold at
	// most this many cached frames.
	BufferPages int
	// WAL enables the write-ahead log of the staged-update write path
	// (requires Dir): every StageInsert/StageDelete is appended to a log
	// in the index directory before it mutates memory, and reopening the
	// directory replays the log, so staged operations survive a crash.
	// Durability is acknowledged by Flush; Rebuild rotates the log at its
	// manifest commit point.
	WAL bool
}

// Set is a built sharded FLAT index: K per-shard core indexes, the MBR
// directory that routes queries to them, and the shared page pool they
// are served from. What it serves is one generation value (cur): the
// committed manifest and the shards opened from it, immutable and, like
// core.Index, safe for concurrent queries. Updates are staged on the
// side (StageInsert, StageDelete) and folded in by Rebuild, which
// re-bulkloads only the shards the staged changes touch and publishes
// the next generation — see rebuild.go for the delta and swap machinery.
type Set struct {
	pool  *storage.ConcurrentPool
	multi *storage.MultiPager
	dir   string // empty for memory-backed sets

	// pmu guards what queries read and staging or Rebuild replaces:
	// queries snapshot under RLock, staging mutates under Lock, and
	// Rebuild (which additionally replaces the generation) must not run
	// concurrently with queries at all — the public layer enforces that
	// with its ErrBusy query guard.
	pmu    sync.RWMutex
	cur    *generation // the served generation; Rebuild replaces it whole; guarded by pmu
	staged *epoch      // the live staging epoch (delta.go); Rebuild replaces it whole; guarded by pmu
	clock  uint64      // staging-order stamp for last-op-wins semantics; guarded by pmu

	// wal is the write-ahead log behind the staged updates (nil when
	// disabled). Staging appends to it before mutating the epoch, Rebuild
	// rotates it at the manifest swap, Flush syncs it.
	wal *storage.WAL // guarded by pmu
}

// generation is what a set serves between two commits: the manifest it
// committed — for a memory-backed set the one it would commit, every
// entry at generation 0 — and the shards opened from it, by shard. It is
// never modified once published; Rebuild derives the next one from it.
// Per-shard bounds and the element count are read off the shards, the
// world, build knobs and generation numbers off the manifest.
type generation struct {
	m      manifest
	shards []*core.Index
}

// shardOptions is how a shard of g is bulkloaded under page format pf:
// with the manifest's build knobs, and under the one world rule — a lone
// shard keeps the manifest's world, so the build is bit-for-bit the bare
// core one (core.Build unions the world with the data bounds either
// way); with K > 1 each shard partitions its own bounds — its crawl
// graph only ever needs to span its own elements, and tiling the full
// world from every shard would stretch boundary partitions across the
// whole model.
func (g *generation) shardOptions(pf storage.PageFormat) core.Options {
	opts := core.Options{PageCapacity: g.m.PageCapacity, SeedFanout: g.m.SeedFanout, PageFormat: pf}
	if len(g.m.Entries) == 1 {
		opts.World = arrayToMBR(g.m.World)
	}
	return opts
}

// splitHilbert reorders els in place along the 3D Hilbert curve of their
// MBR centers (quantized over world) and cuts the order into at most k
// contiguous, near-equal groups — the shard assignment. Fewer than k
// groups come back when there are fewer than k elements. k <= 1 returns
// the input as one group, untouched: a single shard must preserve the
// exact element order a bare core.Build would see.
func splitHilbert(els []geom.Element, k int, world geom.MBR) [][]geom.Element {
	if len(els) == 0 {
		return nil
	}
	if k <= 1 || len(els) == 1 {
		return [][]geom.Element{els}
	}
	hilbert.SortElements(els, world)

	size := (len(els) + k - 1) / k
	groups := make([][]geom.Element, 0, k)
	for rest := els; len(rest) > 0; {
		n := size
		if n > len(rest) {
			n = len(rest)
		}
		groups = append(groups, rest[:n])
		rest = rest[n:]
	}
	return groups
}

// Build bulkloads a sharded FLAT index over els (reordering the slice in
// place: first along the Hilbert curve into shards, then per shard by
// the STR pass). Shards are built concurrently, at most GOMAXPROCS at
// once (bulkloadShards); see Config for the storage and partitioning
// knobs.
func Build(els []geom.Element, cfg Config) (*Set, error) {
	if len(els) == 0 {
		return nil, core.ErrEmpty
	}
	k := cfg.Shards
	if k <= 0 {
		k = 1
	}
	if k > storage.MaxShards {
		return nil, fmt.Errorf("shard: %d shards exceed the %d-shard id space", k, storage.MaxShards)
	}
	if cfg.WAL && cfg.Dir == "" {
		return nil, errors.New("shard: the write-ahead log requires an on-disk index (Config.Dir)")
	}
	// StageInsert's rule, checked before any file exists: a box that is
	// inverted or not finite would be partitioned, keyed and encoded as
	// if it meant something.
	bounds := geom.EmptyMBR()
	for _, e := range els {
		if !e.Box.Valid() {
			return nil, fmt.Errorf("shard: build element %d: invalid box %v", e.ID, e.Box)
		}
		bounds = bounds.Union(e.Box)
	}
	world := cfg.World
	if world.Empty() || world == (geom.MBR{}) {
		world = bounds
	} else {
		world = world.Union(bounds)
	}
	groups := splitHilbert(els, k, world)

	// Building into a directory that already commits an index writes the
	// new files under the next generation, so the old index is never
	// overwritten: it stays fully openable until the manifest swap below,
	// and a failed build leaves it untouched.
	var gen uint64
	if cfg.Dir != "" {
		var err error
		if gen, err = nextGeneration(cfg.Dir); err != nil {
			return nil, err
		}
	}
	g := &generation{m: manifest{
		World:        mbrToArray(world),
		PageCapacity: cfg.PageCapacity,
		SeedFanout:   cfg.SeedFanout,
		Entries:      make([]shardEntry, len(groups)),
	}}
	jobs := make([]bulkJob, len(groups))
	for s := range jobs {
		jobs[s] = func() ([]geom.Element, core.Options, error) {
			return groups[s], g.shardOptions(cfg.PageFormat), nil
		}
	}
	built, pagers, err := bulkloadShards(cfg.Dir, gen, jobs)
	if err != nil {
		return nil, err
	}
	multi, err := storage.NewMultiPager(pagers)
	if err != nil {
		discardShards(cfg.Dir, gen, pagers)
		return nil, err
	}
	for s, ix := range built {
		g.m.Entries[s] = entryFor(s, gen, ix)
	}
	var wal *storage.WAL
	if cfg.Dir != "" {
		if cfg.WAL {
			g.m.WAL = walFileName(gen)
		}
		var gc func()
		if wal, gc, err = commit(cfg.Dir, g.m); err != nil {
			discardShards(cfg.Dir, gen, pagers)
			return nil, err
		}
		gc()
	}

	// Serve every shard from one shared, globally budgeted pool. The
	// per-shard build pools are discarded, so the set starts cold.
	pool := storage.NewConcurrentPool(multi, cfg.BufferPages)
	for s, ix := range built {
		built[s] = ix.WithPool(pool)
	}
	g.shards = built
	return &Set{pool: pool, multi: multi, dir: cfg.Dir, cur: g, staged: newEpoch(len(built)), wal: wal}, nil
}

// bulkJob supplies one shard's elements and build options to
// bulkloadShards. No elements (and no error) skips the shard: it keeps
// what it holds.
type bulkJob func() ([]geom.Element, core.Options, error)

// bulkloadShards is the one bulkload step, shared by Build and Rebuild:
// shard s's job (jobs is by shard; nil leaves the shard out) is
// bulkloaded under the shard's page-id tag into a pager created here —
// under dir the page file shardFileName(s, gen), its superblock appended
// and fsynced before this returns, since a shard file must be durable
// before a manifest is told it exists; a memory pager otherwise —
// through a private build pool that is discarded (the set serves from
// its shared pool, so it starts cold).
//
// The jobs run on min(GOMAXPROCS, len(jobs)) workers, one job per worker
// at a time: a job's element slice (Rebuild's jobs merge theirs) exists
// only while a worker runs it, so peak memory is min(GOMAXPROCS, jobs)
// shards' elements. Every job runs to completion and this returns only
// once every worker has exited, so no goroutine outlives it. It returns
// the new indexes and their pagers by shard, nil where no job ran or a
// job skipped; on any error it discards everything it created
// (discardShards) and returns the lowest failing shard's error, however
// the jobs were scheduled.
func bulkloadShards(dir string, gen uint64, jobs []bulkJob) ([]*core.Index, []storage.Pager, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("shard: create index dir: %w", err)
		}
	}
	built := make([]*core.Index, len(jobs))
	pagers := make([]storage.Pager, len(jobs))
	errs := make([]error, len(jobs))
	run := func(s int) error {
		els, opts, err := jobs[s]()
		if err != nil || len(els) == 0 {
			return err
		}
		var pager storage.Pager = storage.NewMemPager()
		if dir != "" {
			if pager, err = storage.CreateFilePager(filepath.Join(dir, shardFileName(s, gen))); err != nil {
				return fmt.Errorf("shard %d: %w", s, err)
			}
		}
		pagers[s] = pager
		view, err := storage.NewShardView(pager, s)
		if err == nil {
			built[s], err = core.Build(storage.NewConcurrentPool(view, 0), els, opts)
		}
		if err == nil && dir != "" {
			if err = built[s].WriteSuper(); err == nil {
				err = pager.Sync()
			}
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		return nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				errs[s] = run(s)
			}
		}()
	}
	for s := range jobs {
		if jobs[s] != nil {
			next <- s
		}
	}
	close(next)
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		discardShards(dir, gen, pagers)
		return nil, nil, err
	}
	return built, pagers, nil
}

// discardShards undoes a bulkload that will not be committed: every
// pager it created is closed and, under dir, its page file removed — by
// its name, which no committed generation's file shares.
func discardShards(dir string, gen uint64, pagers []storage.Pager) {
	for s, p := range pagers {
		if p == nil {
			continue
		}
		p.Close()
		if dir != "" {
			os.Remove(filepath.Join(dir, shardFileName(s, gen)))
		}
	}
}

// OpenOptions configures OpenSet.
type OpenOptions struct {
	// BufferPages bounds the shared page cache as in Config.
	BufferPages int
	// Mmap memory-maps every shard's page file (storage.OpenMmapPager)
	// instead of reading through file descriptors: cached frames alias
	// the mapping, so cache misses copy nothing. The set remains fully
	// functional — staging and Rebuild write each new shard generation
	// through an ordinary file pager and swap it in, and the rebuilt
	// shard's aliased frames are dropped before its old mapping is
	// unmapped.
	Mmap bool
	// WAL enables the write-ahead log on a directory that does not have
	// one yet (see Config.WAL): a fresh log is created and the manifest
	// rewritten to reference it. A directory whose manifest already
	// references a log always opens and replays it, with or without this
	// knob — durability, once enabled, is never silently dropped.
	WAL bool
}

// OpenSet loads a sharded index previously built with a Config.Dir from
// its directory, resolving each shard's page file through the manifest
// (which names the committed generation; files a crashed rebuild may
// have stranded are ignored). It is the one open step: every shard file
// is opened behind one MultiPager and one shared pool (memory-mapped or
// read through a descriptor, per opts), and each shard is restored from
// its superblock — the last page of its own file, addressed under the
// shard's tag — and cross-checked against its manifest entry. If the
// manifest references a write-ahead log, the log is replayed: operations
// staged before the last crash or close reappear as staged updates,
// exactly as the original calls left them.
func OpenSet(dir string, opts OpenOptions) (*Set, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	pagers := make([]storage.Pager, len(m.Entries))
	closeAll := func() {
		for _, p := range pagers {
			if p != nil {
				p.Close()
			}
		}
	}
	for s, e := range m.Entries {
		var p storage.Pager
		if opts.Mmap {
			p, err = storage.OpenMmapPager(filepath.Join(dir, e.File))
		} else {
			p, err = storage.OpenFilePager(filepath.Join(dir, e.File))
		}
		if err != nil {
			closeAll()
			return nil, err
		}
		pagers[s] = p
	}
	multi, err := storage.NewMultiPager(pagers)
	if err != nil {
		closeAll()
		return nil, err
	}
	pool := storage.NewConcurrentPool(multi, opts.BufferPages)
	g := &generation{m: m, shards: make([]*core.Index, len(m.Entries))}
	for s, e := range m.Entries {
		if pagers[s].NumPages() == 0 {
			closeAll()
			return nil, fmt.Errorf("shard %d: empty page file %s: %w", s, e.File, core.ErrNoSuper)
		}
		super := storage.ShardPageID(s, storage.PageID(pagers[s].NumPages()-1))
		ix, err := core.OpenFrom(pool, super)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if ix.Len() != e.Elements {
			closeAll()
			return nil, fmt.Errorf("shard %d: manifest records %d elements but %s holds %d (corrupted index directory)",
				s, e.Elements, e.File, ix.Len())
		}
		// The superblock is authoritative for the page format (decoding is
		// self-describing anyway); a non-zero manifest record must agree.
		if e.PageFormat != 0 && storage.PageFormat(e.PageFormat) != ix.PageFormat() {
			closeAll()
			return nil, fmt.Errorf("shard %d: manifest records page format %d but %s is %s (corrupted index directory)",
				s, e.PageFormat, e.File, ix.PageFormat())
		}
		g.shards[s] = ix
	}
	set := &Set{pool: pool, multi: multi, dir: dir, cur: g, staged: newEpoch(len(g.shards))}
	if err := set.openWAL(opts.WAL); err != nil {
		multi.Close()
		return nil, err
	}
	return set, nil
}

// openWAL wires the write-ahead log into a freshly opened set: a log
// the manifest references is opened and its valid prefix replayed into
// the staged state; otherwise, when enable is set, a fresh log is
// created and published in the manifest, upgrading the directory in
// place. Runs during open, before the set is shared; pmu is taken all
// the same, so the guarded fields have no unlocked writer.
func (set *Set) openWAL(enable bool) error {
	set.pmu.Lock()
	defer set.pmu.Unlock()
	m := set.cur.m
	if m.WAL != "" {
		w, recs, err := storage.OpenWAL(filepath.Join(set.dir, m.WAL))
		if err != nil {
			return fmt.Errorf("shard: open wal %s: %w", m.WAL, err)
		}
		set.wal = w
		set.replayWAL(recs)
		return nil
	}
	if !enable {
		return nil
	}
	// Name the new log after the directory's current generation so a
	// later rebuild's rotation (under m.next()) can never collide with
	// it. commit's GC step is dropped: opening never collects garbage
	// (files a crashed build stranded are ignored here and removed by the
	// next build or rebuild).
	m.WAL = walFileName(m.generation())
	w, _, err := commit(set.dir, m)
	if err != nil {
		return err
	}
	set.wal = w
	set.cur = &generation{m: m, shards: set.cur.shards}
	return nil
}

// Prune returns the shards whose data bounds intersect q, in shard
// order — the shards one range query crawls.
func (s *Set) Prune(q geom.MBR) []int {
	var sel []int
	for i, ix := range s.now().shards {
		if ix.Bounds().Intersects(q) {
			sel = append(sel, i)
		}
	}
	return sel
}

// now returns the generation the set serves. Every accessor below reads
// one through it (one read lock), so each answers from a single
// generation even across a Rebuild.
func (s *Set) now() *generation {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.cur
}

// NumShards returns K (fixed for the life of the set).
func (s *Set) NumShards() int { return len(s.now().shards) }

// Shard returns the i-th per-shard index (for tests and measurements).
func (s *Set) Shard(i int) *core.Index { return s.now().shards[i] }

// ShardBounds returns the directory entry (data bounds) of shard i.
func (s *Set) ShardBounds(i int) geom.MBR { return s.now().shards[i].Bounds() }

// Generation returns the on-disk generation of shard i: how many times
// the shard has been rebuilt since the directory was created. Memory-
// backed sets always report 0.
func (s *Set) Generation(i int) uint64 { return s.now().m.Entries[i].Generation }

// Len returns the total number of indexed elements across shards.
func (s *Set) Len() int {
	n := 0
	for _, ix := range s.now().shards {
		n += ix.Len()
	}
	return n
}

// World returns the space the shard assignment was derived in.
func (s *Set) World() geom.MBR { return arrayToMBR(s.now().m.World) }

// Bounds returns the union of the shard bounds.
func (s *Set) Bounds() geom.MBR {
	b := geom.EmptyMBR()
	for _, ix := range s.now().shards {
		b = b.Union(ix.Bounds())
	}
	return b
}

// NumPartitions returns the total partition (object page) count.
func (s *Set) NumPartitions() int {
	n := 0
	for _, ix := range s.now().shards {
		n += ix.NumPartitions()
	}
	return n
}

// SizeBytes returns the on-disk footprint across all shards.
func (s *Set) SizeBytes() uint64 {
	var n uint64
	for _, ix := range s.now().shards {
		n += ix.SizeBytes()
	}
	return n
}

// Pool returns the shared page pool all shards are served from.
func (s *Set) Pool() *storage.ConcurrentPool { return s.pool }

// DropCache empties the shared page cache.
func (s *Set) DropCache() { s.pool.DropFrames() }

// Close releases every shard's storage. A write-ahead log is synced
// before it is closed, so a clean close acknowledges everything staged
// (an unclean one keeps what the last Flush acknowledged).
func (s *Set) Close() error {
	s.pmu.Lock()
	var werr error
	if s.wal != nil {
		werr = s.wal.Sync()
		if cerr := s.wal.Close(); werr == nil {
			werr = cerr
		}
		s.wal = nil
	}
	s.pmu.Unlock()
	if err := s.multi.Close(); err != nil {
		return err
	}
	return werr
}
