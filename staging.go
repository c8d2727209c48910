package flat

import "flat/internal/shard"

// StageInsert stages els for insertion. Each element becomes visible
// to queries immediately (staged updates are overlaid on the bulkloaded
// results) and is folded by the next Rebuild into the bulkloaded state
// of the shard the MBR directory routes it to.
// Safe to call concurrently with queries; like them it returns
// ErrClosed after Close.
func (ix *Index) StageInsert(els ...Element) error { return ix.set.StageInsert(els...) }

// StageDelete stages the removal of the element with the given id and
// box (both must match — ids are opaque caller keys, not assumed
// unique). The element disappears from query results immediately and
// is dropped for good at the next Rebuild. Staging is last-op-wins: a
// matching StageInsert issued after the delete restores the element.
// Deleting a non-existent element is a harmless no-op. Safe to call
// concurrently with queries; returns ErrClosed after Close.
func (ix *Index) StageDelete(id uint64, box MBR) error { return ix.set.StageDelete(id, box) }

// Flush fsyncs the write-ahead log, making every staged update issued
// so far durable: after Flush returns, a crash (or kill -9) at any
// point loses none of them — reopening the index replays the log and
// they are pending again. A no-op on a memory-backed index, which keeps
// no log. Safe to call concurrently with queries and staging; returns
// ErrClosed after Close.
func (ix *Index) Flush() error { return ix.set.Flush() }

// DeltaStats sizes the staged-update delta of an Index: the staged
// insert and delete totals and the write-ahead log's record bytes.
type DeltaStats = shard.DeltaStats

// DeltaStats reports the size of the staged-update delta awaiting the
// next Rebuild: the staged insert and delete totals and the bytes of
// records in the write-ahead log (0 for a memory-backed index) — what a
// caller reads to decide when to Rebuild; DirtyShards names the shards
// that Rebuild would examine. Safe to call concurrently with anything;
// after Close it reports what it did before.
func (ix *Index) DeltaStats() DeltaStats { return ix.set.DeltaStats() }

// DirtyShards returns the shards the staged updates may touch — the
// candidates the next Rebuild will examine, in shard order; candidates
// whose contents turn out unchanged are skipped by the rebuild. Like
// DeltaStats it reads in-memory state and answers after Close.
func (ix *Index) DirtyShards() []int { return ix.set.DirtyShards() }

// Rebuild folds the staged updates in by re-bulkloading only the dirty
// shards; untouched shards keep their page files (byte-identical). On
// disk each rebuilt shard writes a
// new generation of its page file and the manifest is atomically
// swapped, so a crash at any point leaves a fully openable index. It
// returns the rebuilt shard numbers (nil when nothing was staged or no
// staged change had an effect).
//
// Rebuild runs beside query sessions: one being drained reads the
// generation it started on to the end, and sessions started after
// Rebuild returns read the new one. It waits for staging and Flush, as
// they wait for it, and after Close it returns ErrClosed. On failure
// the staged updates stay staged and the index keeps serving its
// previous state.
func (ix *Index) Rebuild() ([]int, error) { return ix.set.Rebuild() }
