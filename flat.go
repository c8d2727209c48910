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
// The index is bulkloaded: like the system in the paper, it does not
// support in-place updates — rebuild when the data set changes
// (Section IV: models change rarely and in batches, making reindexing
// cheaper than maintaining update machinery). The sharded index
// shrinks the rebuild unit: ShardedIndex.StageInsert/StageDelete stage
// a batch of changes (visible to queries immediately) and Rebuild
// re-bulkloads only the shards the batch touches.
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
// spelled for callers that want the whole result at once, and
// BatchRangeQuery/BatchCountQuery fan a query batch over a worker pool.
// These seven methods are defined once (on base, in query.go) for both
// index shapes, over one executor pair: the set's shard-ordered range
// stream and its distance-ordered NN stream, each running on the
// goroutine that drains the session. OpenAny opens either index shape
// from a path and returns the composed QueryIndex interface; the
// Querier / Inspector / Maintainer role interfaces split the same
// surface by concern for callers that need less.
//
// # Concurrency
//
// A built (or reopened) Index is immutable, and its query paths —
// sessions, RangeQuery, CountQuery, PointQuery and the Batch variants —
// are safe to call from any number of goroutines at once. Queries share
// one lock-striped page cache; each query's QueryStats counts exactly
// the cache misses that query caused (a page another query just fetched
// is a free hit, as with a shared OS page cache). DropCache and Close
// are maintenance operations: calling them while queries are in flight
// (including sessions currently being drained) returns ErrBusy instead
// of racing, and every query and maintenance method returns ErrClosed
// after a successful Close. BatchRangeQuery is the convenience entry
// point for fanning a query batch over a worker pool.
//
// # Lifecycle of plain accessors
//
// The no-error accessors (Len, Bounds, World, NumPartitions, SizeBytes,
// SeedHeight, NumShards, ShardBounds, ShardGeneration, ...) read
// in-memory state that outlives the page files: they keep returning
// correct values after Close, and they serialize internally against
// maintenance (in particular ShardedIndex.Rebuild, which swaps the
// state they read), so calling them concurrently with anything is safe.
// They are the Inspector role; only methods that touch pages or mutate
// state report ErrClosed/ErrBusy.
//
// # Scaling out: sharding
//
// One Index is one bulkload pass over one page file. BuildSharded
// splits the data into K spatial shards along the Hilbert curve, builds
// K independent FLAT indexes in parallel, and serves them behind a
// top-level MBR directory: queries are pruned against the directory and
// streamed from the surviving shards in shard order by one executor,
// with merged QueryStats.
// All shards share one globally budgeted page cache. There is one
// implementation under the two names: an Index is the one-shard set
// (over a single page file, without the directory, manifest and
// write-ahead log a ShardedIndex keeps, and without its staging and
// Rebuild), so both satisfy Querier by the same methods and serving
// code is written once against the interface. See the README for
// guidance on choosing K.
package flat

import (
	"context"
	"fmt"
	"os"

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

// Querier is the query contract shared by the unsharded Index and the
// ShardedIndex: callers that only read — examples, benchmarks, serving
// code — program against it and work with either. It is the query role
// of the old 12-method interface; inspection and maintenance live in
// Inspector and Maintainer, and QueryIndex composes all three.
//
// All methods are safe for concurrent use.
type Querier interface {
	// Query starts a cancellable, streaming query session.
	Query(ctx context.Context, q MBR, opts ...QueryOption) *Results
	// NN starts a streaming k-nearest-neighbor session: the k indexed
	// elements nearest to p, delivered in nondecreasing distance.
	NN(ctx context.Context, p Vec3, k int, opts ...QueryOption) *Results
	// RangeQuery returns every indexed element intersecting q.
	RangeQuery(q MBR) ([]Element, QueryStats, error)
	// CountQuery counts elements intersecting q without materializing.
	CountQuery(q MBR) (int, QueryStats, error)
	// PointQuery returns the elements whose MBR contains p.
	PointQuery(p Vec3) ([]Element, QueryStats, error)
	// BatchRangeQuery fans queries over a worker pool.
	BatchRangeQuery(ctx context.Context, queries []MBR, workers int) ([]BatchResult, error)
	// BatchCountQuery is BatchRangeQuery without materializing results.
	BatchCountQuery(ctx context.Context, queries []MBR, workers int) ([]int, []QueryStats, error)
}

// Inspector is the read-only metadata role: cheap accessors over
// immutable in-memory state. They remain valid after Close — see the
// "Lifecycle of plain accessors" note in the package documentation.
type Inspector interface {
	// Len returns the number of indexed elements.
	Len() int
	// NumPartitions returns the number of partitions (object pages).
	NumPartitions() int
	// Bounds returns the bounding box of the indexed data.
	Bounds() MBR
	// World returns the partitioned space.
	World() MBR
	// SizeBytes returns the on-disk footprint of the index.
	SizeBytes() uint64
	// CacheStats reports the page cache's occupancy and budget.
	CacheStats() (cached, capacity int)
}

// Maintainer is the maintenance role. Both methods return ErrBusy while
// queries are in flight and ErrClosed after a successful Close.
type Maintainer interface {
	// DropCache empties the page cache (cold-start simulation).
	DropCache() error
	// Close releases the index's storage.
	Close() error
}

// QueryIndex is the composed contract most callers want — an opened
// index they can query, inspect and eventually close. OpenAny returns
// it; Index and ShardedIndex both satisfy it.
type QueryIndex interface {
	Querier
	Inspector
	Maintainer
}

var (
	_ QueryIndex = (*Index)(nil)
	_ QueryIndex = (*ShardedIndex)(nil)
)

// OpenAny opens a previously built index of either shape from path: a
// page file (flat.Build with Options.Path, reopened as *Index) or a
// shard directory holding a manifest (flat.BuildSharded with
// ShardedOptions.Dir, reopened as *ShardedIndex). Serving code calls
// one constructor and programs against QueryIndex; the concrete type
// is recoverable with a type switch when shape-specific accessors
// (SeedHeight, NumShards, staging) are needed. It is shorthand for
// OpenAnyWithOptions(path, nil).
func OpenAny(path string) (QueryIndex, error) {
	return OpenAnyWithOptions(path, nil)
}

// OpenAnyWithOptions is OpenAny with open-time options. A shard
// directory consults what OpenShardedWithOptions does; a page file has
// no write-ahead log or staging, so it consults BufferPages and Mmap
// only (as OpenWithOptions) and ignores the rest.
func OpenAnyWithOptions(path string, opts *ShardedOptions) (QueryIndex, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return OpenShardedWithOptions(path, opts)
	}
	var o Options
	if opts != nil {
		o = Options{BufferPages: opts.BufferPages, Mmap: opts.Mmap}
	}
	return OpenWithOptions(path, &o)
}

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
	// reference MBR per page plus 32-byte elements whose boxes are
	// quantized 32-bit offsets into it — 126 elements per page (1.7×
	// v1). Quantization is conservative: a stored box always contains
	// the inserted one, with at most ~4/2³² of the page extent of slack
	// per side, so queries never miss an element; extremely tight
	// queries can return a near-miss whose stored box grazes them.
	PageFormatV2 = storage.PageFormatV2
)

// ObjectPageCapacity reports how many elements one 4 KiB object page
// holds under the given format: 73 for PageFormatV1, 126 for
// PageFormatV2.
func ObjectPageCapacity(f PageFormat) int { return storage.ObjectPageCapacity(f) }

// Options configures Build. The zero value (or nil) gives a memory-backed
// index with full 4 KiB object pages partitioned over the data's bounds.
type Options struct {
	// World is the space that is partitioned into cells. It must contain
	// the data; leave zero to use the data's bounding box. Supply the
	// true model volume when the data does not fill its extremes (e.g. a
	// tissue volume with margins) so that crawl connectivity spans it.
	World MBR
	// PageCapacity caps elements per object page (default: a full page,
	// 73 elements).
	PageCapacity int
	// SeedFanout caps the entries per seed-tree internal node (default:
	// a full page). Smaller fanouts deepen the seed tree; the paper's
	// scaled-down experiments shrink it together with PageCapacity.
	SeedFanout int
	// Path, when non-empty, stores the index in a page file on disk at
	// the given path instead of in memory.
	Path string
	// BufferPages bounds the page cache (<= 0: unbounded). The cache is
	// what makes repeated page touches within one query free; call
	// Index.DropCache to simulate a cold start.
	BufferPages int
	// PageFormat selects the object-page layout (zero: PageFormatV1).
	// PageFormatV2 packs 1.7× the elements per page — proportionally
	// fewer pages read per query — at the cost of conservatively rounded
	// element boxes; see the PageFormat constants. The format is recorded
	// in the index file, so it is a build-time knob only: Open never
	// needs it.
	PageFormat PageFormat
	// Mmap, consulted only by OpenWithOptions, memory-maps the page file
	// read-only instead of reading it through a file descriptor: cache
	// misses alias pages straight out of the mapping, copying nothing.
	// Page-read accounting is unchanged (the cost model counts cache
	// misses, not syscalls). Ignored by Build, which needs a writable
	// pager.
	Mmap bool
}

// base is the one index implementation behind both public shapes: a
// shard.Set and the queryGuard that serializes its queries against
// maintenance. Index and ShardedIndex embed it and share, defined once
// here and in query.go, the seven query methods, the Inspector
// accessors, DropCache and Close; nothing in it asks which shape it
// serves — an Index is simply the set with one shard.
type base struct {
	guard queryGuard
	set   *shard.Set
}

// Index is a built FLAT index: a read-only face over a one-shard set —
// in memory, or over a single page file (Options.Path) — that adds the
// single-index inspection surface (CrawlFrom, Records, SeedHeight,
// PageFormat, AvgNeighbors) and exposes no staging or Rebuild. See the
// package documentation for its concurrency guarantees.
type Index struct {
	base
}

// Build bulkloads a FLAT index over els (reordering the slice in place).
// See Options for storage and partitioning knobs. With Options.Path the
// page file is fsynced before Build returns, and a failed build removes
// the partial file.
func Build(els []Element, opts *Options) (*Index, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	set, err := shard.Build(els, shard.Config{
		PageCapacity: o.PageCapacity,
		SeedFanout:   o.SeedFanout,
		PageFormat:   o.PageFormat,
		World:        o.World,
		File:         o.Path,
		BufferPages:  o.BufferPages,
	})
	if err != nil {
		return nil, err
	}
	return &Index{base{set: set}}, nil
}

// Open loads a previously built disk-backed index from its page file
// with an unbounded page cache. It is shorthand for
// OpenWithOptions(path, nil).
func Open(path string) (*Index, error) {
	return OpenWithOptions(path, nil)
}

// OpenWithOptions loads a previously built disk-backed index from its
// page file. Only Options.BufferPages and Options.Mmap are consulted:
// BufferPages bounds the page cache the same way it does for Build, and
// Mmap serves pages out of a read-only memory mapping (Path and the
// build-only knobs are ignored — in particular the page format, which
// is read back from the index file itself). Queries on the reopened
// index behave identically to the freshly built one; the build-time
// analysis accessors (AvgNeighbors) return zero, as they are
// measurement aids not stored in the index.
func OpenWithOptions(path string, opts *Options) (*Index, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	set, err := shard.OpenFile(path, shard.OpenOptions{BufferPages: o.BufferPages, Mmap: o.Mmap})
	if err != nil {
		return nil, err
	}
	return &Index{base{set: set}}, nil
}

// CrawlFrom executes only the crawl phase of a range query, starting
// from an explicit metadata record instead of seeding. The paper claims
// the choice of start page affects neither accuracy nor efficiency of
// the search; this entry point exists so that claim stays testable
// against the public index (see Records for enumerating start refs).
func (ix *Index) CrawlFrom(q MBR, start RecordRef) (els []Element, err error) {
	err = ix.guard.query(func() error {
		els, err = ix.set.Shard(0).CrawlFrom(q, start)
		return err
	})
	return els, err
}

// Records enumerates every metadata record in the index in on-disk
// order: its ref (a valid CrawlFrom start), the page and partition MBRs,
// the object page it describes and the full neighbor list (overflow
// chains already spliced). Enumeration stops at the first error fn
// returns, which is then returned.
func (ix *Index) Records(fn func(ref RecordRef, pageMBR, partitionMBR MBR, objectPage PageID, neighbors []RecordRef) error) error {
	return ix.guard.query(func() error { return ix.set.Shard(0).Records(fn) })
}

// The plain accessors below hold the guard's view side: they stay valid
// after Close (they read in-memory state the Close does not tear down),
// but serialize against maintenance — Rebuild swaps the state they read,
// and a concurrent DropCache/Close never interleaves with them. See the
// "Lifecycle of plain accessors" package note.

// Len returns the number of bulkloaded elements; on a ShardedIndex,
// staged inserts and deletes count only after the Rebuild that folds
// them in.
func (b *base) Len() int { return view(&b.guard, b.set.Len) }

// NumPartitions returns the number of partitions (object pages), across
// all shards.
func (b *base) NumPartitions() int { return view(&b.guard, b.set.NumPartitions) }

// Bounds returns the bounding box of the indexed data.
func (b *base) Bounds() MBR { return view(&b.guard, b.set.Bounds) }

// World returns the partitioned space; on a ShardedIndex, the space the
// shard assignment was derived in.
func (b *base) World() MBR { return view(&b.guard, b.set.World) }

// SizeBytes returns the on-disk footprint of the index, across all
// shards.
func (b *base) SizeBytes() uint64 { return view(&b.guard, b.set.SizeBytes) }

// CacheStats reports the page cache's occupancy: how many frames it
// currently holds and its configured budget (capacity <= 0: unbounded;
// on a ShardedIndex the budget is global across shards). A serving
// layer exposes this so operators can see how much of the budget live
// traffic actually uses.
func (b *base) CacheStats() (cached, capacity int) {
	pool := b.set.Pool() // fixed for the set's lifetime, as is its capacity
	return view(&b.guard, pool.Len), pool.Capacity()
}

// DropCache empties the page cache so the next query starts cold — the
// equivalent of the paper's clearing of OS caches between measurements.
// It is a maintenance operation: when queries are in flight it returns
// ErrBusy and leaves the cache untouched (a concurrent query would
// otherwise see a partially dropped cache and report inflated read
// counts), and after Close it returns ErrClosed.
func (b *base) DropCache() error {
	return b.guard.maintain(func() error {
		b.set.DropCache()
		return nil
	})
}

// Close releases the index's storage (closing the page files when the
// index is disk-backed). When queries are in flight it returns ErrBusy
// and closes nothing; retry once they drain. After a successful Close
// every method returns ErrClosed.
func (b *base) Close() error {
	if err := b.guard.shutdown(); err != nil {
		return err
	}
	return b.set.Close()
}

// SeedHeight returns the seed tree height in levels (metadata level
// inclusive); the seed phase of a query reads at most this many internal
// pages.
func (ix *Index) SeedHeight() int {
	return view(&ix.guard, func() int { return ix.set.Shard(0).SeedHeight() })
}

// PageFormat returns the object-page layout the index was built with.
func (ix *Index) PageFormat() PageFormat {
	return view(&ix.guard, func() PageFormat { return ix.set.Shard(0).PageFormat() })
}

// AvgNeighbors returns the mean number of neighborhood pointers per
// partition.
func (ix *Index) AvgNeighbors() float64 {
	return view(&ix.guard, func() float64 { return ix.set.Shard(0).AvgNeighbors() })
}

// String summarizes the index.
func (ix *Index) String() string {
	obj, meta, seed := ix.set.Shard(0).PageCounts()
	return fmt.Sprintf("flat.Index{elements: %d, partitions: %d, pages: %d object + %d metadata + %d seed, %.1f MiB}",
		ix.Len(), ix.NumPartitions(), obj, meta, seed, float64(ix.SizeBytes())/(1<<20))
}
