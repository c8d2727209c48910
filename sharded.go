package flat

import (
	"fmt"

	"flat/internal/shard"
)

// ShardedOptions configures BuildSharded. The zero value (or nil) gives
// a memory-backed single shard — equivalent to an unsharded Build.
type ShardedOptions struct {
	// Shards is K, the number of spatial shards the data is split into
	// along the Hilbert curve. 0 or 1 builds a single shard, which is
	// bit-for-bit the unsharded index. See the README for choosing K.
	Shards int
	// PageCapacity caps elements per object page in every shard
	// (default: a full page), as Options.PageCapacity.
	PageCapacity int
	// SeedFanout caps the entries per seed-tree internal node in every
	// shard (default: a full page), as Options.SeedFanout.
	SeedFanout int
	// World is the space the data lives in, as Options.World; it also
	// anchors the Hilbert grid of the shard assignment.
	World MBR
	// Dir, when non-empty, stores the index on disk: one page file per
	// shard plus a manifest under this directory, reopenable with
	// OpenSharded.
	Dir string
	// BufferPages bounds the page cache shared by all shards
	// (<= 0: unbounded). The budget is global across shards, so K
	// shards never hold more cache memory than one index would.
	BufferPages int
	// PageFormat selects every shard's object-page layout (zero:
	// PageFormatV1), as Options.PageFormat. The format is recorded per
	// shard (manifest and superblock) and preserved by Rebuild, so
	// OpenSharded never needs it.
	PageFormat PageFormat
	// Mmap, consulted only by OpenShardedWithOptions, memory-maps every
	// shard's page file read-only, as Options.Mmap. Staging and Rebuild
	// still work: rebuilt shard generations are written through ordinary
	// file pagers and swapped in.
	Mmap bool
	// WAL records every staged insert and delete in a write-ahead log
	// under Dir before it touches memory, making the staged delta
	// survive a crash: OpenSharded replays the log and the staged
	// updates are pending again, exactly as acknowledged. Requires a
	// disk-backed index (Dir non-empty, or opening one). Acknowledgement
	// is Flush: staged operations not yet synced can be lost to a crash,
	// never torn — replay stops cleanly at the last intact record. When
	// OpenShardedWithOptions finds an index whose manifest already
	// references a log, the log is replayed regardless of this flag; WAL
	// additionally upgrades a log-less index in place.
	WAL bool
	// AutoCompact, when either trigger is set, runs Rebuild automatically
	// in the background once the staged delta grows past the configured
	// thresholds. The zero value keeps compaction fully manual.
	AutoCompact AutoCompact
}

// ShardedIndex is a spatially-partitioned FLAT index: K independent
// shards behind a top-level MBR directory. Queries are pruned against
// the directory and streamed, in shard order, from the shards they can
// touch, with per-shard QueryStats merged into one. It is the same
// implementation as Index (base: one set, one guard, one definition of
// every query method, accessor and maintenance operation) with K shards
// instead of one, and its concurrency contract is the same: query
// methods are safe for any number of goroutines; Close, DropCache and
// Rebuild return ErrBusy while queries are in flight.
//
// Unlike the rebuild-only Index, a ShardedIndex accepts updates between
// bulkloads: StageInsert and StageDelete stage changes that queries see
// immediately, and Rebuild folds them in by re-bulkloading only the
// shards they touch. See the README's "Staged updates" section.
type ShardedIndex struct {
	base
	// compact is the background compactor, nil unless
	// ShardedOptions.AutoCompact enabled one. Set once at construction,
	// before the index is shared.
	compact *compactor
}

// BuildSharded bulkloads a sharded FLAT index over els (reordering the
// slice in place: first along the Hilbert curve into shards, then per
// shard by the STR pass). Shards are built in parallel on a bounded
// worker pool. With opts.Shards <= 1 the result is an exact functional
// twin of the unsharded Build — identical pages, results and read
// counts — so callers can adopt the sharded API unconditionally.
func BuildSharded(els []Element, opts *ShardedOptions) (*ShardedIndex, error) {
	var o ShardedOptions
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
	return newShardedIndex(set, o.AutoCompact), nil
}

// newShardedIndex wraps set and starts the background compactor when ac
// enables one.
func newShardedIndex(set *shard.Set, ac AutoCompact) *ShardedIndex {
	sx := &ShardedIndex{base: base{set: set}}
	sx.startCompactor(ac)
	return sx
}

// OpenSharded loads a previously built disk-backed sharded index from
// its directory with an unbounded shared page cache. It is shorthand
// for OpenShardedWithOptions(dir, nil).
func OpenSharded(dir string) (*ShardedIndex, error) {
	return OpenShardedWithOptions(dir, nil)
}

// OpenShardedWithOptions loads a previously built disk-backed sharded
// index from its directory. Only ShardedOptions.BufferPages, Mmap, WAL
// and AutoCompact are consulted; the shard count, geometry and per-shard
// page formats come from the manifest and the shard files. An index
// whose manifest references a write-ahead log has the log replayed:
// every acknowledged staged update is pending again.
func OpenShardedWithOptions(dir string, opts *ShardedOptions) (*ShardedIndex, error) {
	var o ShardedOptions
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
	return newShardedIndex(set, o.AutoCompact), nil
}

// StageInsert stages els for insertion. Each element is routed to a
// shard through the MBR directory, becomes visible to queries
// immediately (staged updates are overlaid on the bulkloaded results),
// and is folded into its shard's bulkloaded state by the next Rebuild.
// Safe to call concurrently with queries; like them it returns
// ErrClosed after Close.
func (sx *ShardedIndex) StageInsert(els ...Element) error {
	return sx.guard.query(func() error {
		if err := sx.set.StageInsert(els...); err != nil {
			return err
		}
		sx.kickCompactor()
		return nil
	})
}

// StageDelete stages the removal of the element with the given id and
// box (both must match — ids are opaque caller keys, not assumed
// unique). The element disappears from query results immediately and
// is dropped for good at the next Rebuild. Staging is last-op-wins: a
// matching StageInsert issued after the delete restores the element.
// Deleting a non-existent element is a harmless no-op. Safe to call
// concurrently with queries.
func (sx *ShardedIndex) StageDelete(id uint64, box MBR) error {
	return sx.guard.query(func() error {
		if err := sx.set.StageDelete(id, box); err != nil {
			return err
		}
		sx.kickCompactor()
		return nil
	})
}

// Flush fsyncs the write-ahead log, making every staged update issued
// so far durable: after Flush returns, a crash (or kill -9) at any
// point loses none of them — reopening the index replays the log and
// they are pending again. A no-op without a write-ahead log. Safe to
// call concurrently with queries and staging; returns ErrClosed after
// Close.
func (sx *ShardedIndex) Flush() error {
	return sx.guard.query(sx.set.Flush)
}

// DeltaStats sizes the staged-update delta of a ShardedIndex: the
// totals across shards, the write-ahead log's on-disk footprint, and a
// per-shard staged-vs-base breakdown (only shards with staged inserts
// are listed).
type DeltaStats = shard.DeltaStats

// ShardDeltaStats is one shard's entry in DeltaStats.Shards: its
// bulkloaded element count (Base) and its staged-insert count (Staged).
type ShardDeltaStats = shard.ShardDeltaStats

// DeltaStats reports the size of the staged-update delta awaiting the
// next Rebuild: totals, the write-ahead log's on-disk footprint (0
// without one), and a per-shard breakdown of staged inserts against
// bulkloaded size — the ratio AutoCompact's DirtyRatio trigger watches.
// Safe to call concurrently with queries and staging.
func (sx *ShardedIndex) DeltaStats() (st DeltaStats, err error) {
	err = sx.guard.query(func() error {
		st = sx.set.DeltaStats()
		return nil
	})
	return st, err
}

// Pending returns the number of staged inserts and deletes awaiting the
// next Rebuild.
func (sx *ShardedIndex) Pending() (inserts, deletes int, err error) {
	err = sx.guard.query(func() error {
		inserts, deletes = sx.set.Pending()
		return nil
	})
	return inserts, deletes, err
}

// DirtyShards returns the shards the staged updates may touch — the
// candidates the next Rebuild will examine, in shard order; candidates
// whose contents turn out unchanged are skipped by the rebuild.
func (sx *ShardedIndex) DirtyShards() (dirty []int, err error) {
	err = sx.guard.query(func() error {
		dirty = sx.set.DirtyShards()
		return nil
	})
	return dirty, err
}

// Rebuild folds the staged updates in by re-bulkloading only the dirty
// shards; untouched shards keep their page files (byte-identical) and
// their share of the page cache. On disk each rebuilt shard writes a
// new generation of its page file and the manifest is atomically
// swapped, so a crash at any point leaves a fully openable index. It
// returns the rebuilt shard numbers (nil when nothing was staged or no
// staged change had an effect).
//
// Rebuild is a maintenance operation like Close and DropCache: while
// queries are in flight it returns ErrBusy and changes nothing, and
// after Close it returns ErrClosed. On failure the staged updates stay
// staged and the index keeps serving its previous state.
func (sx *ShardedIndex) Rebuild() (rebuilt []int, err error) {
	err = sx.guard.maintain(func() error {
		rebuilt, err = sx.set.Rebuild()
		return err
	})
	return rebuilt, err
}

// The shard accessors below hold the guard's view side, like the ones
// the base defines for both shapes (see flat.go).

// ShardGeneration returns the on-disk generation of shard i — how many
// times the shard has been rebuilt since its directory was created.
// Memory-backed indexes always report 0.
func (sx *ShardedIndex) ShardGeneration(i int) uint64 {
	return view(&sx.guard, func() uint64 { return sx.set.Generation(i) })
}

// NumShards returns K, the number of spatial shards.
func (sx *ShardedIndex) NumShards() int { return view(&sx.guard, sx.set.NumShards) }

// ShardBounds returns the directory entry (the data bounds) of shard i;
// a query is routed to shard i exactly when its box intersects this.
func (sx *ShardedIndex) ShardBounds(i int) MBR {
	return view(&sx.guard, func() MBR { return sx.set.ShardBounds(i) })
}

// ShardPageFormat returns the object-page layout of shard i. Shards of
// one index usually share a format, but generations built under
// different configurations may mix — every page decodes by its own tag.
func (sx *ShardedIndex) ShardPageFormat(i int) PageFormat {
	return view(&sx.guard, func() PageFormat { return sx.set.Shard(i).PageFormat() })
}

// Close releases every shard's storage, stopping the background
// compactor (if any) first and syncing the write-ahead log, so staged
// updates survive to the next OpenSharded even without a Flush. When
// queries are in flight it returns ErrBusy and closes nothing; after a
// successful Close every method returns ErrClosed.
func (sx *ShardedIndex) Close() error {
	if sx.compact != nil {
		// Stop the compactor before taking the guard down: a Rebuild in
		// flight holds it and would turn shutdown into ErrBusy. If Close
		// then fails (queries in flight), the compactor stays stopped;
		// staged updates are simply folded by the next manual Rebuild.
		sx.compact.shutdown()
	}
	return sx.base.Close()
}

// String summarizes the index.
func (sx *ShardedIndex) String() string {
	return fmt.Sprintf("flat.ShardedIndex{shards: %d, elements: %d, partitions: %d, %.1f MiB}",
		sx.NumShards(), sx.Len(), sx.NumPartitions(), float64(sx.SizeBytes())/(1<<20))
}
