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
// shard order, and the per-shard QueryStats are merged. With K=1 the
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
// Every shard is written by one bulkload step (bulkload) and restored
// by one open step (openShards), and every generation of a directory is
// published by one commit step (commit, manifest.go). The public
// flat.Index is this set at any K >= 1: in memory, or in a directory
// with a manifest — at K=1 too.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// are served from. The bulkloaded state is immutable and, like
// core.Index, safe for concurrent queries; updates are staged on the
// side (StageInsert, StageDelete) and folded in by Rebuild, which
// re-bulkloads only the shards the staged changes touch — see
// rebuild.go for the delta and swap machinery.
type Set struct {
	shards []*core.Index
	bounds []geom.MBR // directory: per-shard data bounds, by shard
	world  geom.MBR
	pool   *storage.ConcurrentPool
	multi  *storage.MultiPager
	count  int

	// Rebuild state. dir is empty for memory-backed sets; gens tracks
	// each shard's on-disk generation; the build knobs are kept (and,
	// on disk, persisted in the manifest) so rebuilt shards are
	// bulkloaded exactly like the original ones.
	dir          string
	gens         []uint64
	pageCapacity int
	seedFanout   int

	// Staged updates, overlaid on query results until the next Rebuild.
	// pmu guards them: queries snapshot under RLock, staging mutates
	// under Lock, and Rebuild (which additionally swaps the bulkloaded
	// state above) must not run concurrently with queries at all — the
	// public layer enforces that with its ErrBusy query guard.
	pmu    sync.RWMutex
	staged *epoch // the live staging epoch (delta.go); Rebuild replaces it whole; guarded by pmu
	clock  uint64 // staging-order stamp for last-op-wins semantics; guarded by pmu

	// wal is the write-ahead log behind the staged updates (nil when
	// disabled). Staging appends to it before mutating the epoch, Rebuild
	// rotates it at the manifest swap, Flush syncs it.
	wal *storage.WAL // guarded by pmu
}

// SplitHilbert reorders els in place along the 3D Hilbert curve of their
// MBR centers (quantized over world) and cuts the order into at most k
// contiguous, near-equal groups — the shard assignment. Fewer than k
// groups come back when there are fewer than k elements. k <= 1 returns
// the input as one group, untouched: a single shard must preserve the
// exact element order a bare core.Build would see.
func SplitHilbert(els []geom.Element, k int, world geom.MBR) [][]geom.Element {
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
// the STR pass). Shards are built on a bounded worker pool; see Config
// for the storage and partitioning knobs.
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
	bounds := geom.ElementsMBR(els)
	world := cfg.World
	if world.Empty() || world == (geom.MBR{}) {
		world = bounds
	} else {
		world = world.Union(bounds)
	}
	groups := SplitHilbert(els, k, world)
	k = len(groups)

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
	pagers, files, err := createPagers(cfg.Dir, k, gen)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, p := range pagers {
			p.Close()
		}
		// A failed build must not leak partial page files.
		for _, f := range files {
			os.Remove(f)
		}
	}

	// Per-shard worlds: a lone shard keeps the caller's world so the
	// build is bit-for-bit the bare core one; with K > 1 each shard
	// partitions its own bounds — its crawl graph only ever needs to
	// span its own elements, and tiling the full world from every shard
	// would stretch boundary partitions across the whole model.
	shardWorld := func(s int) geom.MBR {
		if k == 1 {
			return cfg.World
		}
		return geom.MBR{}
	}

	built := make([]*core.Index, k)
	err = RunBatch(context.Background(), k, 0, func(s int) (err error) {
		built[s], err = bulkload(pagers[s], s, groups[s], core.Options{
			PageCapacity: cfg.PageCapacity,
			SeedFanout:   cfg.SeedFanout,
			PageFormat:   cfg.PageFormat,
			World:        shardWorld(s),
		}, files != nil)
		return err
	})
	if err != nil {
		closeAll()
		return nil, err
	}

	multi, err := storage.NewMultiPager(pagers)
	if err != nil {
		closeAll()
		return nil, err
	}
	var wal *storage.WAL
	if cfg.Dir != "" {
		m := manifest{
			World:        mbrToArray(world),
			PageCapacity: cfg.PageCapacity,
			SeedFanout:   cfg.SeedFanout,
			Entries:      make([]shardEntry, k),
		}
		for s, ix := range built {
			m.Entries[s] = entryFor(s, gen, ix)
		}
		var gc func()
		if wal, gc, err = commit(cfg.Dir, m, cfg.WAL, gen); err != nil {
			closeAll()
			return nil, err
		}
		gc()
	}

	// Serve every shard from one shared, globally budgeted pool. The
	// per-shard build pools are discarded, so the set starts cold.
	pool := storage.NewConcurrentPool(multi, cfg.BufferPages)
	s := &Set{
		shards:       make([]*core.Index, k),
		bounds:       make([]geom.MBR, k),
		world:        world,
		pool:         pool,
		multi:        multi,
		dir:          cfg.Dir,
		pageCapacity: cfg.PageCapacity,
		seedFanout:   cfg.SeedFanout,
		staged:       newEpoch(k),
		wal:          wal,
	}
	if cfg.Dir != "" {
		s.gens = make([]uint64, k)
		for i := range s.gens {
			s.gens[i] = gen
		}
	}
	for i, ix := range built {
		s.shards[i] = ix.WithPool(pool)
		s.bounds[i] = ix.Bounds()
		s.count += ix.Len()
	}
	return s, nil
}

// bulkload is the one per-shard bulkload step, shared by Build and
// Rebuild: shard s's elements are bulkloaded into pager under the
// shard's page-id tag, through a private build pool that is discarded
// (the set serves from its shared pool, so it starts cold). When the
// pager is a page file (persist) the superblock is appended and the file
// fsynced before bulkload returns: a shard file must be durable before
// a manifest is told it exists.
func bulkload(pager storage.Pager, s int, els []geom.Element, opts core.Options, persist bool) (*core.Index, error) {
	view, err := storage.NewShardView(pager, s)
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(storage.NewConcurrentPool(view, 0), els, opts)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	if persist {
		if err := ix.WriteSuper(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if err := pager.Sync(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return ix, nil
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
// have stranded are ignored). If the manifest references a write-ahead
// log, the log is replayed: operations staged before the last crash or
// close reappear as staged updates, exactly as the original calls left
// them.
func OpenSet(dir string, opts OpenOptions) (*Set, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	files := make([]string, len(m.Entries))
	for s, e := range m.Entries {
		files[s] = filepath.Join(dir, e.File)
	}
	set, err := openShards(files, m.Entries, opts)
	if err != nil {
		return nil, err
	}
	set.world = arrayToMBR(m.World)
	set.dir = dir
	set.gens = make([]uint64, len(m.Entries))
	for s, e := range m.Entries {
		set.gens[s] = e.Generation
	}
	set.pageCapacity = m.PageCapacity
	set.seedFanout = m.SeedFanout
	if err := set.openWAL(m, opts.WAL); err != nil {
		set.multi.Close()
		return nil, err
	}
	return set, nil
}

// openShards is the one per-shard open step: file s becomes shard s
// behind one MultiPager and one shared pool (memory-mapped or read
// through a descriptor, per opts), and each shard is restored from its
// superblock — the last page of its own file, addressed under the
// shard's tag. entries are the manifest's records of the same shards,
// cross-checked against what the files actually hold.
func openShards(files []string, entries []shardEntry, opts OpenOptions) (*Set, error) {
	k := len(files)
	pagers := make([]storage.Pager, k)
	closeAll := func() {
		for _, p := range pagers {
			if p != nil {
				p.Close()
			}
		}
	}
	for s, file := range files {
		var p storage.Pager
		var err error
		if opts.Mmap {
			p, err = storage.OpenMmapPager(file)
		} else {
			p, err = storage.OpenFilePager(file)
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
	set := &Set{
		shards: make([]*core.Index, k),
		bounds: make([]geom.MBR, k),
		pool:   pool,
		multi:  multi,
		staged: newEpoch(k),
	}
	for s, file := range files {
		name := filepath.Base(file)
		if pagers[s].NumPages() == 0 {
			closeAll()
			return nil, fmt.Errorf("shard %d: empty page file %s: %w", s, name, core.ErrNoSuper)
		}
		super := storage.ShardPageID(s, storage.PageID(pagers[s].NumPages()-1))
		ix, err := core.OpenFrom(pool, super)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		e := entries[s]
		if ix.Len() != e.Elements {
			closeAll()
			return nil, fmt.Errorf("shard %d: manifest records %d elements but %s holds %d (corrupted index directory)",
				s, e.Elements, name, ix.Len())
		}
		// The superblock is authoritative for the page format (decoding is
		// self-describing anyway); a non-zero manifest record must agree.
		if e.PageFormat != 0 && storage.PageFormat(e.PageFormat) != ix.PageFormat() {
			closeAll()
			return nil, fmt.Errorf("shard %d: manifest records page format %d but %s is %s (corrupted index directory)",
				s, e.PageFormat, name, ix.PageFormat())
		}
		set.shards[s] = ix
		set.bounds[s] = ix.Bounds()
		set.count += ix.Len()
	}
	return set, nil
}

// openWAL wires the write-ahead log into a freshly opened set: a log
// the manifest references is opened and its valid prefix replayed into
// the staged state; otherwise, when enable is set, a fresh log is
// created and published in the manifest, upgrading the directory in
// place. Runs during open, before the set is shared; pmu is taken all
// the same, so the guarded fields have no unlocked writer.
func (set *Set) openWAL(m manifest, enable bool) error {
	set.pmu.Lock()
	defer set.pmu.Unlock()
	if m.WAL != "" {
		w, recs, err := storage.OpenWAL(filepath.Join(set.dir, m.WAL))
		if err != nil {
			return fmt.Errorf("shard: open wal %s: %w", m.WAL, err)
		}
		set.wal = w
		if err := set.replayWAL(recs); err != nil {
			w.Close()
			set.wal = nil
			return fmt.Errorf("shard: replay wal %s: %w", m.WAL, err)
		}
		return nil
	}
	if !enable {
		return nil
	}
	// Name the new log after the directory's current generation so a
	// later rebuild's rotation (which uses a strictly newer generation)
	// can never collide with it. commit's GC step is dropped: opening
	// never collects garbage (files a crashed build stranded are ignored
	// here and removed by the next build or rebuild).
	var gen uint64
	for _, e := range m.Entries {
		if e.Generation > gen {
			gen = e.Generation
		}
	}
	w, _, err := commit(set.dir, m, true, gen)
	if err != nil {
		return err
	}
	set.wal = w
	return nil
}

// Prune returns the shards whose data bounds intersect q, in shard
// order — the shards one query visits.
func (s *Set) Prune(q geom.MBR) []int {
	var sel []int
	for i, b := range s.bounds {
		if b.Intersects(q) {
			sel = append(sel, i)
		}
	}
	return sel
}

// RangeQuery returns every element intersecting q — bulkloaded and
// staged — with the query's statistics: the collect sink over
// StreamQuery, whose emit order and cancellation rules it inherits.
func (s *Set) RangeQuery(ctx context.Context, q geom.MBR) ([]geom.Element, core.QueryStats, error) {
	var out []geom.Element
	st, err := s.StreamQuery(ctx, q, StreamOptions{}, func(e geom.Element) bool {
		out = append(out, e)
		return true
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// CountQuery is RangeQuery without materializing elements: the count
// sink over StreamQuery, with the identical page access pattern.
func (s *Set) CountQuery(ctx context.Context, q geom.MBR) (int, core.QueryStats, error) {
	st, err := s.StreamQuery(ctx, q, StreamOptions{}, func(geom.Element) bool { return true })
	if err != nil {
		return 0, st, err
	}
	return st.Results, st, nil
}

// The accessors below take pmu's read side: Rebuild swaps shards,
// bounds, world, count and gens under the write side, and before the
// rebuild path existed these fields were immutable — callers reasonably
// treat the accessors as always safe, so they must not race a rebuild.

// NumShards returns K (fixed for the life of the set).
func (s *Set) NumShards() int { return len(s.shards) }

// Shard returns the i-th per-shard index (for tests and measurements).
func (s *Set) Shard(i int) *core.Index {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.shards[i]
}

// ShardBounds returns the directory entry (data bounds) of shard i.
func (s *Set) ShardBounds(i int) geom.MBR {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.bounds[i]
}

// Generation returns the on-disk generation of shard i: how many times
// the shard has been rebuilt since the directory was created. Memory-
// backed sets always report 0.
func (s *Set) Generation(i int) uint64 {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	if s.gens == nil {
		return 0
	}
	return s.gens[i]
}

// Len returns the total number of indexed elements across shards.
func (s *Set) Len() int {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.count
}

// World returns the space the shard assignment was derived in.
func (s *Set) World() geom.MBR {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.world
}

// Bounds returns the union of the shard bounds.
func (s *Set) Bounds() geom.MBR {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	b := geom.EmptyMBR()
	for _, sb := range s.bounds {
		b = b.Union(sb)
	}
	return b
}

// NumPartitions returns the total partition (object page) count.
func (s *Set) NumPartitions() int {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	n := 0
	for _, ix := range s.shards {
		n += ix.NumPartitions()
	}
	return n
}

// SizeBytes returns the on-disk footprint across all shards.
func (s *Set) SizeBytes() uint64 {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	var n uint64
	for _, ix := range s.shards {
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
