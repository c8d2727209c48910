// Package flat is a Go implementation of FLAT, the two-phase spatial
// index for dense three-dimensional data sets introduced in
// "Accelerating Range Queries for Brain Simulations" (Tauheed, Biveinis,
// Heinis, Schürmann, Markram, Ailamaki — ICDE 2012).
//
// FLAT targets range queries on dense, mostly-static spatial models —
// brain-tissue circuits, surface meshes, n-body snapshots — where
// classic R-trees degrade because bounding-box overlap grows with data
// density. FLAT executes a range query in two phases:
//
//   - Seed: a small R-tree (the seed index) is walked along a single
//     pruned path to find one disk page holding an element inside the
//     query range. Cost: the height of the tree, regardless of density.
//   - Crawl: a breadth-first search follows precomputed neighborhood
//     pointers between pages, reading only pages whose bounds intersect
//     the query. Cost: proportional to the result size.
//
// # Quick start
//
//	els := []flat.Element{
//		{ID: 1, Box: flat.Box(flat.V(0, 0, 0), flat.V(1, 1, 1))},
//		{ID: 2, Box: flat.Box(flat.V(2, 2, 2), flat.V(3, 3, 3))},
//	}
//	ix, err := flat.Build(els, nil)
//	if err != nil { ... }
//	hits, stats, err := ix.RangeQuery(flat.Box(flat.V(0, 0, 0), flat.V(2.5, 2.5, 2.5)))
//
// Index is the one index type, Options its one configuration, Build and
// Open its two constructors: Options.Dir keeps the index on disk (a
// directory of page files and a manifest) and Open(dir, nil) loads it
// back.
//
// The index is bulkloaded: like the system in the paper, it is rebuilt
// when its model changes (Section IV: models change rarely and in
// batches, making reindexing cheaper than maintaining update
// machinery). StageInsert/StageDelete stage a batch of changes (visible
// to queries immediately) and Rebuild re-bulkloads only the shards the
// batch touches — at Shards: 1, the whole index, which is the paper's
// "rebuild when the data changes". The caller decides when to fold
// (DeltaStats sizes what has accumulated): Rebuild is the only fold, and
// the index runs no background goroutine.
//
// Page reads are the library's cost model, mirroring the paper's
// evaluation: every query reports how many 4 KiB pages it touched, split
// into seed-tree, metadata and object pages (QueryStats).
//
// # Query sessions
//
// Query is the primary entry point: it starts a cancellable, streaming
// query session. The returned Results is iterated with a range loop and
// delivers elements incrementally as the crawl discovers them, so a
// caller pays page reads only for the results it actually consumes —
// breaking out of the loop, hitting a WithLimit bound, or cancelling
// the context stops the crawl immediately and the remaining pages are
// never read (the crawl's cost is proportional to the result size, so
// bounding the results bounds the I/O):
//
//	res := ix.Query(ctx, box, flat.WithLimit(100))
//	for el, err := range res.All() {
//		if err != nil { ... }
//		use(el)
//	}
//	cost := res.Stats() // page reads of the work actually performed
//
// RangeQuery, CountQuery and PointQuery are Query(ctx, q).Collect()
// spelled for callers that want the whole result at once. All of them
// run over one executor pair: the set's shard-ordered range stream and
// its distance-ordered NN stream, each on the goroutine that drains the
// session.
//
// # Concurrency
//
// The bulkloaded state of an Index is immutable, and its query paths —
// sessions, RangeQuery, CountQuery and PointQuery — are safe to call
// from any number of goroutines at once, alongside staging; concurrent
// sessions are how queries use several cores. Queries share one
// lock-striped page cache; each query's QueryStats counts exactly the
// cache misses that query caused (a page another query just fetched is
// a free hit, as with a shared OS page cache). DropCache, Rebuild and
// Close are maintenance operations:
// calling them while queries are in flight (including sessions
// currently being drained) returns ErrBusy instead of racing, and every
// query and maintenance method returns ErrClosed after a successful
// Close.
//
// # Lifecycle of plain accessors
//
// The no-error accessors (Len, Bounds, World, NumPartitions, SizeBytes,
// SeedHeight, NumShards, ShardBounds, ShardGeneration, ...) read
// in-memory state that outlives the page files: they keep returning
// correct values after Close, and they serialize internally against
// Rebuild (which swaps the state they read), so calling them
// concurrently with anything is safe — and never makes a maintenance
// operation report ErrBusy. Only methods that touch pages or mutate
// state report ErrClosed/ErrBusy.
//
// # Choosing Shards
//
// Build splits the data into Options.Shards spatial shards along the
// Hilbert curve, bulkloads them as independent FLAT indexes in
// parallel, and serves them behind a top-level MBR directory: queries
// are pruned against the directory and streamed from the surviving
// shards in shard order by one executor, with merged QueryStats. All
// shards share one globally budgeted page cache. One shard (the
// default) is exactly the paper's index — one bulkload pass, one seed
// tree, one crawl graph; more shards parallelize the build and shrink
// the unit Rebuild re-bulkloads. See the README for guidance on
// choosing K.
package flat

import (
	"fmt"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/shard"
	"flat/internal/storage"
)

// Re-exported geometry types. MBR coordinates are float64, as in the
// paper's methodology.
type (
	// Vec3 is a point in 3D space.
	Vec3 = geom.Vec3
	// MBR is an axis-aligned minimum bounding rectangle.
	MBR = geom.MBR
	// Element is one indexed spatial element: an opaque 64-bit key plus
	// the element's MBR.
	Element = geom.Element
	// Cylinder is a neuron-morphology segment (two end points, two radii).
	Cylinder = geom.Cylinder
	// Triangle is a surface-mesh triangle.
	Triangle = geom.Triangle
	// QueryStats reports the cost of one range query in disk page reads.
	QueryStats = core.QueryStats
	// RecordRef addresses one metadata record on disk (page + slot); the
	// crawl phase follows these between neighboring partitions.
	RecordRef = core.RecordRef
	// PageID identifies a 4 KiB page within the index's storage.
	PageID = storage.PageID
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// Box constructs an MBR from two opposite corners in any order.
func Box(a, b Vec3) MBR { return geom.Box(a, b) }

// CubeAt returns the axis-aligned cube centered at c with the given side.
func CubeAt(c Vec3, side float64) MBR { return geom.CubeAt(c, side) }

// PageSize is the disk page size used throughout the library (4 KiB).
const PageSize = storage.PageSize

// PageFormat selects the on-disk object-page layout; see the Options
// field and the README's "On-disk format" section.
type PageFormat = storage.PageFormat

const (
	// PageFormatV1 is the original full-precision layout: 73 elements
	// per 4 KiB page, each a 48-byte float64 MBR plus a 64-bit id. Boxes
	// are stored bit-exactly.
	PageFormatV1 = storage.PageFormatV1
	// PageFormatV2 is the compressed layout: one full-precision
	// reference MBR and a base id per page, plus elements whose boxes
	// are quantized 32-bit offsets into the MBR and whose ids are
	// offsets from the base, as narrow as the page's id span allows —
	// 149 elements per page (2.0× v1) when ids span under 2^24, 126
	// (1.7×) for arbitrary 64-bit ids. Quantization is conservative: a
	// stored box always contains the inserted one, with at most ~4/2³²
	// of the page extent of slack per side, so queries never miss an
	// element; extremely tight queries can return a near-miss whose
	// stored box grazes them.
	PageFormatV2 = storage.PageFormatV2
)

// ObjectPageCapacity reports how many elements one 4 KiB object page
// holds under the given format whatever their ids: 73 for PageFormatV1,
// 126 for PageFormatV2. A v2 build packs more when the ids it indexes
// lie close together (149 for a span under 2^24), so the realized
// elements per page can exceed this.
func ObjectPageCapacity(f PageFormat) int { return storage.ObjectPageCapacity(f) }

// Options configures Build and Open. The zero value (or nil) gives a
// memory-backed one-shard index with full 4 KiB object pages
// partitioned over the data's bounds. Open consults BufferPages, Mmap
// and WAL only: the shard count, geometry and per-shard
// page formats come from the directory's manifest and shard files.
type Options struct {
	// Shards is K, the number of spatial shards the data is split into
	// along the Hilbert curve. 0 or 1 builds a single shard — the
	// paper's index. See the README for choosing K.
	Shards int
	// PageCapacity caps elements per object page in every shard
	// (default: a full page — 73 elements under PageFormatV1; under
	// PageFormatV2 up to 149, depending on each shard's id span).
	PageCapacity int
	// SeedFanout caps the entries per seed-tree internal node in every
	// shard (default: a full page). Smaller fanouts deepen the seed
	// tree; the paper's scaled-down experiments shrink it together with
	// PageCapacity.
	SeedFanout int
	// World is the space that is partitioned into cells. It must contain
	// the data; leave zero to use the data's bounding box. Supply the
	// true model volume when the data does not fill its extremes (e.g. a
	// tissue volume with margins) so that crawl connectivity spans it.
	// It also anchors the Hilbert grid of the shard assignment.
	World MBR
	// Dir, when non-empty, stores the index on disk: one page file per
	// shard plus a manifest under this directory (at one shard too),
	// reopenable with Open. Each page file is fsynced before the manifest
	// commits it, and a failed build removes its partial files.
	Dir string
	// BufferPages bounds the page cache shared by all shards
	// (<= 0: unbounded). The budget is global across shards, so K
	// shards never hold more cache memory than one would. The cache is
	// what makes repeated page touches within one query free; call
	// DropCache to simulate a cold start.
	BufferPages int
	// PageFormat selects every shard's object-page layout (zero:
	// PageFormatV1). PageFormatV2 packs 1.7–2.0× the elements per page —
	// proportionally fewer pages read per query — at the cost of
	// conservatively rounded element boxes; see the PageFormat constants.
	// The format is recorded per shard (manifest and superblock) and
	// preserved by Rebuild, so it is a build-time knob only: Open never
	// needs it.
	PageFormat PageFormat
	// Mmap, consulted only by Open, memory-maps every shard's page file
	// read-only instead of reading it through a file descriptor: cache
	// misses alias pages straight out of the mapping, copying nothing.
	// Page-read accounting is unchanged (the cost model counts cache
	// misses, not syscalls). Staging and Rebuild still work: rebuilt
	// shard generations are written through ordinary file pagers and
	// swapped in.
	Mmap bool
	// WAL records every staged insert and delete in a write-ahead log
	// under Dir before it touches memory, making the staged delta
	// survive a crash: Open replays the log and the staged updates are
	// pending again, exactly as acknowledged. Requires a disk-backed
	// index (Dir non-empty, or opening one). Acknowledgement is Flush:
	// staged operations not yet synced can be lost to a crash, never
	// torn — replay stops cleanly at the last intact record. When Open
	// finds an index whose manifest already references a log, the log is
	// replayed regardless of this flag; WAL additionally upgrades a
	// log-less index in place.
	WAL bool
}

// Index is a built FLAT index: K >= 1 spatial shards behind a top-level
// MBR directory, in memory or in a directory on disk. Queries are pruned
// against the directory and streamed, in shard order, from the shards
// they can touch, with per-shard QueryStats merged into one. Between
// bulkloads it accepts updates: StageInsert and StageDelete stage
// changes that queries see immediately, and Rebuild folds them in by
// re-bulkloading only the shards they touch (see the README's "Staged
// updates" section). See the package documentation for its concurrency
// guarantees.
type Index struct {
	guard queryGuard
	set   *shard.Set
}

// Build bulkloads a FLAT index over els (reordering the slice in place:
// with more than one shard first along the Hilbert curve into shards,
// then per shard by the STR pass). Shards are built in parallel on a
// bounded worker pool. See Options for storage and partitioning knobs.
// An element whose box is inverted or has a NaN or infinite coordinate
// fails the build, by its ID, before any file is written — the rule
// StageInsert applies.
func Build(els []Element, opts *Options) (*Index, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	set, err := shard.Build(els, shard.Config{
		Shards:       o.Shards,
		PageCapacity: o.PageCapacity,
		SeedFanout:   o.SeedFanout,
		PageFormat:   o.PageFormat,
		World:        o.World,
		Dir:          o.Dir,
		BufferPages:  o.BufferPages,
		WAL:          o.WAL,
	})
	if err != nil {
		return nil, err
	}
	return &Index{set: set}, nil
}

// Open loads a previously built disk-backed index from its directory
// (nil opts: file reads, an unbounded shared page cache). An index whose
// manifest references a write-ahead log has the log replayed: every
// acknowledged staged update is pending again. Queries on the reopened
// index behave identically to the freshly built one.
func Open(dir string, opts *Options) (*Index, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	set, err := shard.OpenSet(dir, shard.OpenOptions{
		BufferPages: o.BufferPages,
		Mmap:        o.Mmap,
		WAL:         o.WAL,
	})
	if err != nil {
		return nil, err
	}
	return &Index{set: set}, nil
}

// ShardedOptions, BuildSharded and OpenShardedWithOptions are reserved
// spellings of Options, Build and Open. They remain only because
// benchmark/ — frozen between benchmark PRs — calls them; nothing in
// this module does, and the next benchmark-archetype PR moves it to the
// short names and drops these three.
type ShardedOptions = Options

func BuildSharded(els []Element, opts *Options) (*Index, error) { return Build(els, opts) }

func OpenShardedWithOptions(dir string, opts *Options) (*Index, error) { return Open(dir, opts) }

// CrawlFrom executes only the crawl phase of a range query, starting
// from an explicit metadata record instead of seeding. The paper claims
// the choice of start page affects neither accuracy nor efficiency of
// the search; this entry point exists so that claim stays testable
// against the public index (see Records for enumerating start refs).
// The crawl stays inside the shard that owns start — the shard tagged
// into the ref's page id; a ref naming no shard of this index is an
// error.
func (ix *Index) CrawlFrom(q MBR, start RecordRef) (els []Element, err error) {
	err = ix.guard.query(func() error {
		s, _ := storage.SplitShardPageID(start.Page())
		if s >= ix.set.NumShards() {
			return fmt.Errorf("flat: %v names shard %d of a %d-shard index", start, s, ix.set.NumShards())
		}
		els, err = ix.set.Shard(s).CrawlFrom(q, start)
		return err
	})
	return els, err
}

// Records enumerates every metadata record in the index, shard by shard
// and within a shard in on-disk order: its ref (a valid CrawlFrom
// start), the page and partition MBRs, the object page it describes and
// the full neighbor list (overflow chains already spliced). The page and
// partition MBRs come back as the metadata page stores them:
// conservatively rounded outward to a grid over the shard's world, so
// each contains the exact box (pages written before that layout store
// exact boxes). Enumeration stops at the first error fn returns, which
// is then returned.
func (ix *Index) Records(fn func(ref RecordRef, pageMBR, partitionMBR MBR, objectPage PageID, neighbors []RecordRef) error) error {
	return ix.guard.query(func() error {
		for s := range ix.set.NumShards() {
			err := ix.set.Shard(s).Records(func(r core.Record) error {
				return fn(r.Ref, r.PageMBR, r.PartitionMBR, r.ObjectPage, r.Neighbors)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// AvgNeighbors returns the mean number of neighborhood pointers per
// partition, over the partitions of all shards. It is read off the
// metadata pages (one Records pass through the page cache), so a
// reopened index reports what the built one did.
func (ix *Index) AvgNeighbors() (float64, error) {
	pointers, partitions := 0, 0
	err := ix.Records(func(_ RecordRef, _, _ MBR, _ PageID, neighbors []RecordRef) error {
		pointers += len(neighbors)
		partitions++
		return nil
	})
	if err != nil || partitions == 0 {
		return 0, err
	}
	return float64(pointers) / float64(partitions), nil
}

// The plain accessors below stay valid after Close (they read in-memory
// state the Close does not tear down) and serialize against Rebuild,
// which swaps that state, inside the set. See the "Lifecycle of plain
// accessors" package note.

// Len returns the number of bulkloaded elements; staged inserts and
// deletes count only after the Rebuild that folds them in.
func (ix *Index) Len() int { return ix.set.Len() }

// NumPartitions returns the number of partitions (object pages), across
// all shards.
func (ix *Index) NumPartitions() int { return ix.set.NumPartitions() }

// Bounds returns the bounding box of the indexed data.
func (ix *Index) Bounds() MBR { return ix.set.Bounds() }

// World returns the partitioned space — the space the shard assignment
// was derived in.
func (ix *Index) World() MBR { return ix.set.World() }

// SizeBytes returns the on-disk footprint of the index, across all
// shards.
func (ix *Index) SizeBytes() uint64 { return ix.set.SizeBytes() }

// CacheStats reports the page cache's occupancy: how many frames it
// currently holds and its configured budget (capacity <= 0: unbounded;
// the budget is global across shards). A serving layer exposes this so
// operators can see how much of the budget live traffic actually uses.
func (ix *Index) CacheStats() (cached, capacity int) {
	pool := ix.set.Pool() // fixed for the set's lifetime, as is its capacity
	return pool.Len(), pool.Capacity()
}

// NumShards returns K, the number of spatial shards.
func (ix *Index) NumShards() int { return ix.set.NumShards() }

// ShardBounds returns the directory entry (the data bounds) of shard i;
// a query is routed to shard i exactly when its box intersects this.
func (ix *Index) ShardBounds(i int) MBR { return ix.set.ShardBounds(i) }

// ShardGeneration returns the on-disk generation of shard i — how many
// times the shard has been rebuilt since its directory was created.
// Memory-backed indexes always report 0.
func (ix *Index) ShardGeneration(i int) uint64 { return ix.set.Generation(i) }

// ShardPageFormat returns the object-page layout of shard i. Shards of
// one index usually share a format, but generations built under
// different configurations may mix — every page decodes by its own tag.
func (ix *Index) ShardPageFormat(i int) PageFormat { return ix.set.Shard(i).PageFormat() }

// SeedHeight returns the height in levels (metadata level inclusive) of
// the tallest shard's seed tree; the seed phase of a query reads at most
// this many internal pages per shard it visits.
func (ix *Index) SeedHeight() int {
	h := 0
	for s := range ix.set.NumShards() {
		h = max(h, ix.set.Shard(s).SeedHeight())
	}
	return h
}

// DropCache empties the page cache so the next query starts cold — the
// equivalent of the paper's clearing of OS caches between measurements.
// It is a maintenance operation: when queries are in flight it returns
// ErrBusy and leaves the cache untouched (a concurrent query would
// otherwise see a partially dropped cache and report inflated read
// counts), and after Close it returns ErrClosed.
func (ix *Index) DropCache() error {
	return ix.guard.maintain(func() error {
		ix.set.DropCache()
		return nil
	})
}

// Close releases every shard's storage, syncing the write-ahead log
// first, so staged updates survive to the next Open even without a
// Flush. When queries are in flight it returns ErrBusy and changes
// nothing — the index keeps serving; retry once they drain. After a
// successful Close every method returns ErrClosed.
func (ix *Index) Close() error {
	if err := ix.guard.shutdown(); err != nil {
		return err
	}
	return ix.set.Close()
}

// PageCounts returns the number of object, metadata and seed-internal
// pages over all shards: the bulkloaded index's page runs, without the
// superblocks.
func (ix *Index) PageCounts() (object, metadata, seedInternal int) {
	for s := range ix.set.NumShards() {
		o, m, sd := ix.set.Shard(s).PageCounts()
		object, metadata, seedInternal = object+o, metadata+m, seedInternal+sd
	}
	return object, metadata, seedInternal
}

// String summarizes the index.
func (ix *Index) String() string {
	obj, meta, seed := ix.PageCounts()
	shards := ""
	if k := ix.NumShards(); k > 1 {
		shards = fmt.Sprintf("shards: %d, ", k)
	}
	return fmt.Sprintf("flat.Index{%selements: %d, partitions: %d, pages: %d object + %d metadata + %d seed, %.1f MiB}",
		shards, ix.Len(), ix.NumPartitions(), obj, meta, seed, float64(ix.SizeBytes())/(1<<20))
}
