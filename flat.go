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
// evaluation: every query, R-tree baselines included, reports how many
// 4 KiB pages it touched, split by page kind (QueryStats.Reads).
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
// sessions are how queries use several cores. Queries share no page
// cache: each query's QueryStats counts every distinct page it read
// once, as if the OS cache were cleared before it (the paper's
// methodology), so a query reports the same reads whatever ran before
// it or runs beside it. Rebuild and Close are maintenance operations:
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
// Rebuild (which swaps the state they read; each call answers from one
// generation), so calling them concurrently with anything is safe —
// and never makes a maintenance operation report ErrBusy. Only methods
// that touch pages or mutate state report ErrClosed/ErrBusy.
//
// # Choosing Shards
//
// Build splits the data into Options.Shards spatial shards along the
// Hilbert curve, bulkloads them as independent FLAT indexes in
// parallel, and serves them behind a top-level MBR directory: queries
// are pruned against the directory and streamed from the surviving
// shards in shard order by one executor, with merged QueryStats. One
// shard (the default) is exactly the
// paper's index — one bulkload pass, one seed tree, one crawl graph;
// more shards parallelize the build and shrink the unit Rebuild
// re-bulkloads. See the README for guidance on choosing K.
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
	// QueryStats reports the cost of one query (range, k-NN or baseline
	// R-tree) in disk page reads.
	QueryStats = core.QueryStats
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
	// 161 elements per page (2.2× v1) when ids span under 2^8, 155 under
	// 2^16, 149 under 2^24, then 144, 139, 134 and 130 per further byte
	// of span, and 126 (1.7×) for arbitrary 64-bit ids. Quantization is
	// conservative: a stored box always contains the inserted one, with
	// at most ~4/2³² of the page extent of slack per side, so queries
	// never miss an element; extremely tight queries can return a
	// near-miss whose stored box grazes them.
	PageFormatV2 = storage.PageFormatV2
)

// ObjectPageCapacity reports how many elements one 4 KiB object page
// holds under the given format whatever their ids: 73 for PageFormatV1,
// 126 for PageFormatV2. A v2 build packs more when the ids it indexes
// lie close together (161 for a span under 2^8, 155 under 2^16, 149
// under 2^24, down to 130 under 2^56), so the realized elements per
// page can exceed this.
func ObjectPageCapacity(f PageFormat) int { return storage.ObjectPageCapacity(f) }

// Options configures Build and Open. The zero value (or nil) gives a
// memory-backed one-shard index with full 4 KiB object pages
// partitioned over the data's bounds. Open consults no field: the
// shard count, geometry and per-shard page formats come from the
// directory's manifest and shard files.
type Options struct {
	// Shards is K, the number of spatial shards the data is split into
	// along the Hilbert curve. 0 or 1 builds a single shard — the
	// paper's index. n elements are cut into runs of ceil(n/K), which
	// makes ceil(n/ceil(n/K)) shards: K, or fewer when n < K or the runs
	// use the elements up early (at K = 4, 5, 6 or 9 elements make 3
	// shards). See the README for choosing K.
	Shards int
	// pageCapacity caps elements per object page in every shard (0: a
	// full page). Only this package's tests set it, to reach multi-page
	// crawls at test scale.
	pageCapacity int
	// World is the space that is partitioned into cells. It must contain
	// the data; leave zero to use the data's bounding box. Supply the
	// true model volume when the data does not fill its extremes (e.g. a
	// tissue volume with margins) so that crawl connectivity spans it.
	// It also anchors the Hilbert grid of the shard assignment.
	World MBR
	// Dir, when non-empty, stores the index on disk: one page file per
	// shard, a manifest and a write-ahead log under this directory (at
	// one shard too), reopenable with Open. Each page file is fsynced
	// before the manifest commits it, and a failed build removes its
	// partial files. The log records every staged insert and delete
	// before it touches memory, so the staged delta survives a crash:
	// Open replays the log and the staged updates are pending again,
	// exactly as acknowledged. Acknowledgement is Flush: staged
	// operations not yet synced can be lost to a crash, never torn —
	// replay stops cleanly at the last intact record. A memory-backed
	// index keeps no log.
	Dir string
	// PageFormat selects every shard's object-page layout (zero:
	// PageFormatV1). PageFormatV2 packs 1.7–2.2× the elements per page —
	// proportionally fewer pages read per query — at the cost of
	// conservatively rounded element boxes; see the PageFormat constants.
	// The format is recorded per shard (manifest and superblock) and
	// preserved by Rebuild, so it is a build-time knob only: Open never
	// needs it.
	PageFormat PageFormat
	// Mmap is reserved and has no effect. A disk-backed index is always
	// served through each shard file's read-only memory mapping, after
	// Build, Rebuild and Open alike: page reads alias pages straight
	// out of the mapping, copying nothing. On platforms without one the
	// file is read into memory once instead.
	Mmap bool
	// WAL is reserved and has no effect. A disk-backed index always
	// keeps its write-ahead log (see Dir), and a memory-backed one never
	// does.
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

// Build bulkloads a FLAT index over els, which it may reorder in place
// (with one shard the STR pass sorts it; with more, each shard's
// elements are copied out of it along the Hilbert curve and sorted
// there). Shards are built in parallel on a
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
		PageCapacity: o.pageCapacity,
		PageFormat:   o.PageFormat,
		World:        o.World,
		Dir:          o.Dir,
	})
	if err != nil {
		return nil, err
	}
	return &Index{set: set}, nil
}

// Open loads a previously built disk-backed index from its directory;
// opts is not consulted and may be nil. The directory's write-ahead log
// is replayed: every acknowledged staged update is pending again. A
// directory without a log is given one, so opening it writes a new log
// and manifest, as opening one with metadata of kind 2 or 3 already
// writes when it upgrades them. Queries on the reopened index behave
// identically to the freshly built one.
func Open(dir string, opts *Options) (*Index, error) {
	set, err := shard.OpenSet(dir, shard.OpenOptions{})
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

// AvgNeighbors returns the mean number of neighborhood pointers per
// partition, over the partitions of all shards. It is read off the
// metadata pages (each shard's neighbor histogram), so a reopened index
// reports what the built one did.
func (ix *Index) AvgNeighbors() (float64, error) {
	pointers, partitions := 0, 0
	err := ix.guard.query(func() error {
		for s := range ix.set.NumShards() {
			h, err := ix.set.Shard(s).NeighborHistogram()
			if err != nil {
				return err
			}
			for n, count := range h {
				pointers += n * count
				partitions += count
			}
		}
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
func (ix *Index) SeedHeight() int { return ix.set.Totals().SeedHeight }

// Close releases every shard's storage, syncing a directory's
// write-ahead log first, so staged updates survive to the next Open
// even without a Flush. When queries are in flight it returns ErrBusy and changes
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
	t := ix.set.Totals()
	return t.ObjectPages, t.MetadataPages, t.SeedPages
}

// String summarizes the index, every number from one generation.
func (ix *Index) String() string {
	t := ix.set.Totals()
	shards := ""
	if t.Shards > 1 {
		shards = fmt.Sprintf("shards: %d, ", t.Shards)
	}
	return fmt.Sprintf("flat.Index{%selements: %d, partitions: %d, pages: %d object + %d metadata + %d seed, %.1f MiB}",
		shards, t.Elements, t.Partitions, t.ObjectPages, t.MetadataPages, t.SeedPages, float64(t.SizeBytes)/(1<<20))
}
