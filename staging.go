package flat

import "flat/internal/shard"

// StageInsert stages els for insertion. Each element is routed to a
// shard through the MBR directory, becomes visible to queries
// immediately (staged updates are overlaid on the bulkloaded results),
// and is folded into its shard's bulkloaded state by the next Rebuild.
// Safe to call concurrently with queries; like them it returns
// ErrClosed after Close.
func (ix *Index) StageInsert(els ...Element) error {
	return ix.guard.query(func() error { return ix.set.StageInsert(els...) })
}

// StageDelete stages the removal of the element with the given id and
// box (both must match — ids are opaque caller keys, not assumed
// unique). The element disappears from query results immediately and
// is dropped for good at the next Rebuild. Staging is last-op-wins: a
// matching StageInsert issued after the delete restores the element.
// Deleting a non-existent element is a harmless no-op. Safe to call
// concurrently with queries.
func (ix *Index) StageDelete(id uint64, box MBR) error {
	return ix.guard.query(func() error { return ix.set.StageDelete(id, box) })
}

// Flush fsyncs the write-ahead log, making every staged update issued
// so far durable: after Flush returns, a crash (or kill -9) at any
// point loses none of them — reopening the index replays the log and
// they are pending again. A no-op without a write-ahead log. Safe to
// call concurrently with queries and staging; returns ErrClosed after
// Close.
func (ix *Index) Flush() error {
	return ix.guard.query(ix.set.Flush)
}

// DeltaStats sizes the staged-update delta of an Index: the totals
// across shards, the write-ahead log's on-disk footprint, and a
// per-shard staged-vs-base breakdown (only shards with staged inserts
// are listed).
type DeltaStats = shard.DeltaStats

// ShardDeltaStats is one shard's entry in DeltaStats.Shards: its
// bulkloaded element count (Base) and its staged-insert count (Staged).
type ShardDeltaStats = shard.ShardDeltaStats

// DeltaStats reports the size of the staged-update delta awaiting the
// next Rebuild: the staged insert and delete totals, the write-ahead
// log's on-disk footprint (0 without one), and a per-shard breakdown of
// staged inserts against bulkloaded size — what a caller reads to decide
// when to Rebuild. Safe to call concurrently with queries and staging.
func (ix *Index) DeltaStats() (st DeltaStats, err error) {
	err = ix.guard.query(func() error {
		st = ix.set.DeltaStats()
		return nil
	})
	return st, err
}

// DirtyShards returns the shards the staged updates may touch — the
// candidates the next Rebuild will examine, in shard order; candidates
// whose contents turn out unchanged are skipped by the rebuild.
func (ix *Index) DirtyShards() (dirty []int, err error) {
	err = ix.guard.query(func() error {
		dirty = ix.set.DirtyShards()
		return nil
	})
	return dirty, err
}

// Rebuild folds the staged updates in by re-bulkloading only the dirty
// shards; untouched shards keep their page files (byte-identical). On
// disk each rebuilt shard writes a
// new generation of its page file and the manifest is atomically
// swapped, so a crash at any point leaves a fully openable index. It
// returns the rebuilt shard numbers (nil when nothing was staged or no
// staged change had an effect).
//
// Rebuild is a maintenance operation like Close: while
// queries are in flight it returns ErrBusy and changes nothing, and
// after Close it returns ErrClosed. On failure the staged updates stay
// staged and the index keeps serving its previous state.
func (ix *Index) Rebuild() (rebuilt []int, err error) {
	err = ix.guard.maintain(func() error {
		rebuilt, err = ix.set.Rebuild()
		return err
	})
	return rebuilt, err
}
