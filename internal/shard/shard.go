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
// directory routes queries to the shards they can touch. The split is
// by rank in the stable Hilbert order, selected on every core without a
// sort (splitHilbert), so which element lands in which shard, and in
// what order its bulkload sees it, is a function of the input alone.
//
// A range query has one executor (StreamRuns, merge.go): the directory
// prunes shards whose bounds do not intersect the query box, the
// surviving shards run the ordinary seed+crawl and are delivered in
// shard order, and the per-shard QueryStats are merged. A range query
// and a k-NN query (nn.go) read the staged delta through one pooled
// snapshot taken in one read lock (view, delta.go). With K=1 the
// whole apparatus degenerates to exactly the bare core index — same
// pages, same ids, same read counts — which is the invariant the tests
// pin down.
//
// Each shard is its own FLAT index over its own pager (a MemPager, or
// its file's read-only mapping), read through its own pool over a
// one-shard view (storage.NewShardView) that strips the shard tag every
// page id the shard stores carries. A generation holds its shards'
// pagers beside the shards.
//
// Sharding also shrinks the rebuild unit: updates are staged on the
// side and folded in by re-bulkloading only the shards they touch,
// under crash-safe generation-tagged manifests — see rebuild.go.
//
// A set is two values: the generation it serves (the committed manifest
// and the shards opened from it, replaced whole by Rebuild) and the
// staging epoch overlaid on it (delta.go). Every shard is written by one
// bulkload step (bulkloadShards) and, in a directory, served through its
// read-only mapping by one open step (openShard) — after Build, Rebuild
// and OpenSet alike — and every generation of a directory is published
// by one commit step (commit, manifest.go). The public flat.Index is
// this set at any K >= 1: in memory, or in a directory with a manifest —
// at K=1 too.
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/hilbert"
	"flat/internal/storage"
	"flat/internal/str"
)

// Config configures Build.
type Config struct {
	// Shards is K, the number of spatial shards. 0 or 1 builds a single
	// shard (identical to a bare core index). Build makes
	// ceil(n/ceil(n/K)) shards of n elements (splitHilbert): K, or fewer
	// when n < K or the ceil(n/K)-element runs use the elements up early.
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
	// shard, a manifest and the write-ahead log of the staged-update
	// write path, all under this directory. Every StageInsert and
	// StageDelete is appended to the log before it mutates memory, and
	// reopening the directory replays it, so staged operations survive
	// a crash. Durability is acknowledged by Flush; Rebuild rotates the
	// log at its manifest commit point. A memory-backed set keeps no log.
	Dir string
}

// ErrClosed is returned by every query, staging call, Flush, Rebuild
// and Close after a successful Close.
var ErrClosed = errors.New("flat: index is closed")

// Set is a built sharded FLAT index: K per-shard core indexes, each
// reading its own pager, and the MBR directory that routes queries to
// them. What it serves is one generation value (cur): the committed
// manifest and the shards opened from it, immutable and, like
// core.Index, safe for concurrent queries. Updates are staged on the
// side (StageInsert, StageDelete) and folded in by Rebuild, which
// re-bulkloads only the shards the staged changes touch and publishes
// the next generation — see rebuild.go for the delta and swap machinery.
//
// The set owns its lifecycle: queries, staging, Flush, Rebuild and Close
// run beside each other, and none refuses another. A query holds the
// generation it reads, whose pagers close when its last hold goes
// (release). After Close everything but the plain accessors reports
// ErrClosed.
type Set struct {
	dir string // empty for memory-backed sets

	// pmu guards what queries read and staging or Rebuild replaces:
	// queries snapshot and hold the served generation under its read
	// side (enter); staging, Rebuild and Close mutate under its write
	// side.
	pmu    sync.RWMutex
	cur    *generation // the served generation; Rebuild replaces it whole; guarded by pmu
	staged *epoch      // the live staging epoch (delta.go); Rebuild replaces it whole; guarded by pmu
	clock  uint64      // staging-order stamp for last-op-wins semantics; guarded by pmu
	closed bool        // set by Close; guarded by pmu

	// wal is the write-ahead log behind the staged updates (nil for a
	// memory-backed set). Staging appends to it before mutating the
	// epoch, Rebuild rotates it at the manifest swap, Flush syncs it.
	wal *storage.WAL // guarded by pmu
}

// generation is what a set serves between two commits: the manifest it
// committed — for a memory-backed set the one it would commit, every
// entry at generation 0 — and the shards opened from it with the pagers
// they read, both by shard. Those are never modified once published;
// Rebuild derives the next generation from them. Per-shard bounds and the element
// count are read off the shards, the world, build knobs and generation
// numbers off the manifest.
type generation struct {
	m      manifest
	shards []*core.Index
	pagers []storage.Pager // shards[s] reads pagers[s] through its own view

	// holds counts g's holds minus one: the zero value is the set's own
	// hold while it serves g. Each query reading g (enter) adds one, and
	// so does g's predecessor, whose readers share the clean shards'
	// pagers.
	holds atomic.Int64
	// next is g's successor, which g holds. It is written under pmu's
	// write side before the set's hold on g is released, so the release
	// that drops g's last hold, ordered after it by holds, reads it
	// without pmu.
	next *generation
}

// release drops one hold on g. The release that drops the last closes
// every pager of g that g.next does not also serve, skipping nil ones (a
// partly opened generation), then releases g.next; it returns the first
// error. Any other release returns nil.
func (g *generation) release() error {
	if g.holds.Add(-1) >= 0 {
		return nil
	}
	var first error
	for s, p := range g.pagers {
		if p == nil || g.next != nil && g.next.pagers[s] == p {
			continue
		}
		if err := p.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard: close shard %d: %w", s, err)
		}
	}
	if g.next != nil {
		if err := g.next.release(); first == nil {
			first = err
		}
	}
	return first
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

// splitHilbert cuts els into the shard assignment: their stable order
// along the 3D Hilbert curve of their MBR centers, quantized over world,
// cut into runs of ceil(n/k) elements. That makes ceil(n/ceil(n/k))
// groups: k, or fewer when n < k or the runs use the elements up early
// (at k = 4, n = 5, 6 and 9 make 3). k <= 1 returns the input as one
// group, untouched: a single shard must preserve the exact element order
// a bare core.Build would see.
//
// It selects the groups by rank (str.SplitRanks) instead of sorting, and
// copies them into one new slice, each group in input order; els is not
// modified. The shard files do not move for it: core.Build's STR pass
// sorts a group by center, and the only elements it leaves in the order
// it gets them, equal centers, share a key, so the curve's order also
// holds them in input order. A group no larger than a page, which STR
// writes as it comes, is sorted along the curve.
func splitHilbert(els []geom.Element, k int, world geom.MBR) [][]geom.Element {
	n := len(els)
	if n == 0 {
		return nil
	}
	if k <= 1 || n == 1 {
		return [][]geom.Element{els}
	}
	size := (n + k - 1) / k

	// Every element's bucket (its key's top levels), on every core.
	q := hilbert.NewQuantizer(world)
	bucket := make([]uint16, n)
	inChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y, z := q.Cell(els[i].Box.Center())
			bucket[i] = uint16(hilbert.Prefix3(x, y, z, splitLevels))
		}
	})
	perm, _ := str.SplitRanks(bucket, 1<<(3*splitLevels), size,
		func(i int) uint64 { return q.KeyOfMBR(els[i].Box) }, cmp.Compare[uint64])
	out := make([]geom.Element, n)
	inChunks(n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			out[j] = els[perm[j]]
		}
	})
	groups := str.Chunks(out, size)
	for _, g := range groups {
		if len(g) <= maxPageElements {
			hilbert.SortElements(g, world)
		}
	}
	return groups
}

// splitLevels is how many Hilbert curve levels bucket an element for
// splitHilbert: its bucket is its cell of the 16×16×16 grid over the
// world, the top 12 bits of its key.
const splitLevels = 4

// maxPageElements is the most elements an object page of any format
// holds: core.Build sorts a group into pages only when it is larger.
var maxPageElements = storage.ObjectPageCapacityForSpan(storage.PageFormatV2, 0)

// parallel is the package's one fan-out: it runs f(i) for every i in
// [0, n) on min(GOMAXPROCS, n) workers, each pulling the next unclaimed
// index once its last call returned, so at most that many calls run at
// once. It returns once every worker has exited.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// inChunks runs f(lo, hi) on each of GOMAXPROCS contiguous chunks [lo,
// hi) of [0, n), each on a worker of its own (parallel).
func inChunks(n int, f func(lo, hi int)) {
	chunks := min(runtime.GOMAXPROCS(0), n)
	parallel(chunks, func(c int) { f(c*n/chunks, (c+1)*n/chunks) })
}

// Build bulkloads a sharded FLAT index over els, which it may reorder in
// place: one shard's STR pass sorts els itself; with more, splitHilbert
// copies each shard's elements out of els, which stays as it was.
// Shards are built concurrently, at most GOMAXPROCS at once
// (bulkloadShards); see Config for the storage and partitioning knobs.
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
	// StageInsert's rule, checked before any file exists: a box that is
	// inverted or not finite would be partitioned, keyed and encoded as
	// if it meant something. The scan runs in chunks on every core, and
	// reports the lowest-index invalid box; min and max are exact, so
	// the chunks' bounds merge to the bounds in any order.
	var mu sync.Mutex
	bad, bounds := len(els), geom.EmptyMBR()
	inChunks(len(els), func(lo, hi int) {
		i := slices.IndexFunc(els[lo:hi], func(e geom.Element) bool { return !e.Box.Valid() })
		b := geom.ElementsMBR(els[lo:hi])
		mu.Lock()
		defer mu.Unlock()
		if i >= 0 {
			bad = min(bad, lo+i)
		}
		bounds = bounds.Union(b)
	})
	if bad < len(els) {
		e := els[bad]
		return nil, fmt.Errorf("shard: build element %d: invalid box %v", e.ID, e.Box)
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
	for s, ix := range built {
		g.m.Entries[s] = entryFor(s, gen, ix)
	}
	var wal *storage.WAL
	if cfg.Dir != "" {
		var gc func()
		if wal, gc, err = commit(cfg.Dir, &g.m); err != nil {
			discardShards(cfg.Dir, gen, pagers)
			return nil, err
		}
		gc()
	}
	g.shards, g.pagers = built, pagers
	return &Set{dir: cfg.Dir, cur: g, staged: new(epoch), wal: wal}, nil
}

// bulkJob supplies one shard's elements and build options to
// bulkloadShards. No elements (and no error) skips the shard: it keeps
// what it holds.
type bulkJob func() ([]geom.Element, core.Options, error)

// bulkloadShards is the one bulkload step, shared by Build and Rebuild:
// shard s's job (jobs is by shard; nil leaves the shard out) is
// bulkloaded under the shard's page-id tag into a MemPager, through its
// own pool over the shard's view. In memory the shard is served as
// built. Under dir its superblock is appended and its pages written
// whole to the file shardFileName(s, gen) and fsynced before this
// returns (MemPager.WriteFile), since a shard file must be durable
// before a manifest is told it exists; the MemPager is dropped and the
// file served through openShard, the open step's own, so a fresh shard
// is served exactly as a reopen serves it.
//
// The jobs run on min(GOMAXPROCS, len(jobs)) workers (parallel), one
// job per worker at a time: a job's element slice (Rebuild's jobs merge
// theirs) exists only while a worker runs it, and so do its in-memory
// pages under dir, so peak memory is min(GOMAXPROCS, jobs) shards'
// elements and pages.
// Every job runs to completion and this returns only once every worker
// has exited, so no goroutine outlives it. It returns
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
	run := func(s int) (err error) {
		els, opts, err := jobs[s]()
		if err != nil || len(els) == 0 {
			return err
		}
		defer func() {
			if err != nil {
				err = fmt.Errorf("shard %d: %w", s, err)
			}
		}()
		mem := storage.NewMemPager()
		view, err := storage.NewShardView(mem, s)
		if err != nil {
			return err
		}
		ix, err := core.Build(storage.NewConcurrentPool(view, 0), els, opts)
		if err != nil {
			return err
		}
		if dir == "" {
			built[s], pagers[s] = ix, mem
			return nil
		}
		// Serve what a reopen would: the written file through its
		// mapping, restored from its superblock.
		path := filepath.Join(dir, shardFileName(s, gen))
		if err := ix.WriteSuper(); err != nil {
			return err
		}
		if err := mem.WriteFile(path); err != nil {
			return err
		}
		if built[s], pagers[s], err = openShard(path, s); err != nil {
			os.Remove(path)
		}
		return err
	}
	parallel(len(jobs), func(s int) {
		if jobs[s] != nil {
			errs[s] = run(s)
		}
	})
	if err := cmp.Or(errs...); err != nil {
		discardShards(dir, gen, pagers)
		return nil, nil, err
	}
	return built, pagers, nil
}

// discardShards undoes a bulkload that will not be committed: every
// pager it returned is closed and, under dir, its page file removed — by
// its name, which no committed generation's file shares. A job returns
// a pager only for a file it wrote and opened (it removes one that fails
// to open), so nothing else at that name is ever removed.
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
	// Mmap is reserved and has no effect: every committed shard file is
	// served through its read-only mapping (storage.OpenMmapPager; on
	// platforms without one, the file read into memory once).
	Mmap bool
	// WAL is reserved and has no effect: every directory keeps a
	// write-ahead log. A log the manifest names is replayed; a directory
	// without one gets a fresh log at open (see openWAL).
	WAL bool
}

// openShard is the one per-shard open step, shared by OpenSet and
// bulkloadShards: it maps the page file at path read-only and restores
// shard s from its superblock, the last page of the file, addressed
// under the shard's tag through the shard's own pool over its view —
// the pool the shard is served from. It returns the index and the
// mapped pager, or an error and nothing open.
func openShard(path string, s int) (*core.Index, storage.Pager, error) {
	p, err := storage.OpenMmapPager(path)
	if err != nil {
		return nil, nil, err
	}
	if p.NumPages() == 0 {
		p.Close()
		return nil, nil, fmt.Errorf("empty page file %s: %w", filepath.Base(path), core.ErrNoSuper)
	}
	view, err := storage.NewShardView(p, s)
	var ix *core.Index
	if err == nil {
		ix, err = core.OpenFrom(storage.NewConcurrentPool(view, 0), storage.ShardPageID(s, storage.PageID(p.NumPages()-1)))
	}
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	return ix, p, nil
}

// OpenSet loads a sharded index previously built with a Config.Dir from
// its directory, resolving each shard's page file through the manifest
// (which names the committed generation; files a crashed rebuild may
// have stranded are ignored). It is the one open step: each shard file
// is mapped and its shard restored (openShard) and cross-checked against
// its manifest entry, and every shard is served through its own mapping
// as openShard returned it. The write-ahead log the manifest references
// is replayed: operations staged before the last crash or close reappear
// as staged updates, exactly as the original calls left them. A
// directory whose manifest names no log is given one, so opening it
// writes a manifest.
// A shard whose metadata pages are of an older kind than queries read
// is then upgraded (upgrade) before the set serves anything.
func OpenSet(dir string, opts OpenOptions) (*Set, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	g := &generation{m: m, shards: make([]*core.Index, len(m.Entries)), pagers: make([]storage.Pager, len(m.Entries))}
	for s, e := range m.Entries {
		ix, p, err := openShard(filepath.Join(dir, e.File), s)
		if err != nil {
			g.release()
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		g.pagers[s] = p
		if ix.Len() != e.Elements {
			g.release()
			return nil, fmt.Errorf("shard %d: manifest records %d elements but %s holds %d (corrupted index directory)",
				s, e.Elements, e.File, ix.Len())
		}
		// The superblock is authoritative for the page format (decoding is
		// self-describing anyway); a non-zero manifest record must agree.
		if e.PageFormat != 0 && storage.PageFormat(e.PageFormat) != ix.PageFormat() {
			g.release()
			return nil, fmt.Errorf("shard %d: manifest records page format %d but %s is %s (corrupted index directory)",
				s, e.PageFormat, e.File, ix.PageFormat())
		}
		g.shards[s] = ix
	}
	set := &Set{dir: dir, cur: g, staged: new(epoch)}
	if err := set.openWAL(); err != nil {
		g.release()
		return nil, err
	}
	if err := set.upgrade(); err != nil {
		set.Close()
		return nil, err
	}
	return set, nil
}

// metadataKind is the metadata-page kind core.Build writes, the only one
// its queries read (core.Index.MetadataKind).
const metadataKind = 4

// upgrade rebuilds every shard whose metadata pages are of a kind below
// metadataKind, all in one Rebuild with those shards forced dirty:
// Rebuild extracts a shard from its object pages, which every kind
// shares, and publishes the next generation through the same bulkload,
// commit, log rotation and closing of the replaced pagers, in the same
// crash-safe order. The staged operations the log replayed are folded
// in with them, once. A directory already all of metadataKind is left
// as it is. Runs during open, before the set is shared.
func (set *Set) upgrade() error {
	set.pmu.Lock()
	defer set.pmu.Unlock()
	var old []int
	var names []string
	for sh, ix := range set.cur.shards {
		kind, err := ix.MetadataKind()
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
		if kind < metadataKind {
			old = append(old, sh)
			names = append(names, fmt.Sprintf("shard %d (kind %d)", sh, kind))
		}
	}
	if len(old) == 0 {
		return nil
	}
	if _, err := set.rebuildLocked(old); err != nil {
		return fmt.Errorf("shard: upgrade metadata of %s to kind %d: %w", strings.Join(names, ", "), metadataKind, err)
	}
	return nil
}

// openWAL wires the write-ahead log into a freshly opened set: a log
// the manifest references is opened and its valid prefix replayed into
// the staged state; otherwise a fresh log is created and published in
// the manifest, upgrading the directory in place. Runs during open,
// before the set is shared; pmu is taken all the same, so the guarded
// fields have no unlocked writer.
func (set *Set) openWAL() error {
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
	// commit's GC step is dropped: opening never collects garbage (files
	// a crashed build stranded are ignored here and removed by the next
	// build or rebuild).
	w, _, err := commit(set.dir, &m)
	if err != nil {
		return err
	}
	set.wal = w
	set.cur = &generation{m: m, shards: set.cur.shards, pagers: set.cur.pagers}
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
func (s *Set) Len() int { return s.Totals().Elements }

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
func (s *Set) NumPartitions() int { return s.Totals().Partitions }

// SizeBytes returns the on-disk footprint across all shards.
func (s *Set) SizeBytes() uint64 { return s.Totals().SizeBytes }

// Totals describes one generation: its shard count and its shards'
// sums.
type Totals struct {
	Shards, Elements, Partitions int
	// ObjectPages, MetadataPages and SeedPages count the bulkloaded
	// page runs (seed-internal pages for SeedPages), without the
	// superblocks.
	ObjectPages, MetadataPages, SeedPages int
	SeedHeight                            int // the tallest shard's seed tree, in levels
	SizeBytes                             uint64
}

// Totals returns the served generation's Totals. Every number is read
// from the one generation, so they agree with each other even when a
// Rebuild publishes the next generation meanwhile.
func (s *Set) Totals() Totals {
	g := s.now()
	t := Totals{Shards: len(g.shards)}
	for _, ix := range g.shards {
		obj, meta, seed := ix.PageCounts()
		t.Elements += ix.Len()
		t.Partitions += ix.NumPartitions()
		t.ObjectPages += obj
		t.MetadataPages += meta
		t.SeedPages += seed
		t.SeedHeight = max(t.SeedHeight, ix.SeedHeight())
		t.SizeBytes += ix.SizeBytes()
	}
	return t
}

// AvgNeighbors returns the mean number of neighborhood pointers per
// partition over every shard's partitions, read off the metadata pages
// (core.AvgNeighbors) as one query: after Close it returns ErrClosed.
func (s *Set) AvgNeighbors() (avg float64, err error) {
	err = s.query(func(g *generation, _ *view) (err error) {
		avg, err = core.AvgNeighbors(g.shards...)
		return err
	})
	return avg, err
}

// Pool returns a pool that reads every shard of the served generation,
// each page id routed to its shard's pager by its tag
// (storage.NewMultiPager). It is reserved: the benchmark module reads
// through it; no query does, and each call builds a new router. The
// set owns the pagers: close the set, not the pool's pager.
func (s *Set) Pool() *storage.ConcurrentPool {
	multi, err := storage.NewMultiPager(s.now().pagers)
	if err != nil {
		// Unreachable: a set serves 1..MaxShards shards, each with a pager.
		panic(err)
	}
	return storage.NewConcurrentPool(multi, 0)
}

// DropCache does nothing: no page is cached, every query counts its own
// cold reads. It is reserved, kept only because the benchmark module
// calls it.
func (s *Set) DropCache() {}

// Close releases the set's hold on the served generation and marks the
// set closed. A write-ahead log is synced before it is closed, so a clean
// close acknowledges everything staged (an unclean one keeps what the
// last Flush acknowledged); a second Close returns ErrClosed. Queries
// already running finish over the generation they read: its pagers close
// when the last of them leaves, and Close returns the first pager-close
// error only when it drops the last hold itself — a query that drops it
// has nowhere to report one, and it is discarded. The log handle is
// kept, closed, so DeltaStats reports after Close what it did before.
func (s *Set) Close() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	var werr error
	if s.wal != nil {
		werr = s.wal.Sync()
		if cerr := s.wal.Close(); werr == nil {
			werr = cerr
		}
	}
	if err := s.cur.release(); err != nil {
		return err
	}
	return werr
}
