// Staged updates and the incremental per-shard rebuild.
//
// FLAT is a bulkloading index: the paper's models change rarely and in
// batches, so it rebuilds instead of maintaining update machinery.
// Sharding shrinks the rebuild unit — when a batch of changes touches a
// fraction of the space, only the shards it lands in need a new
// bulkload. This file implements that: updates are staged in memory
// (StageInsert and StageDelete append to the epoch's lists), overlaid
// on query results so reads stay correct between rebuilds, and folded
// in by Rebuild, which re-bulkloads only the dirty shards. A staged
// insert belongs to the shard the MBR directory routes it to
// (routeLocked); that is asked only where a shard is: by Rebuild,
// DirtyShards and DeltaStats. The directory's bounds change only when a
// Rebuild publishes a generation, which consumes the epoch, so a staged
// insert is routed to the same shard whenever it is asked. What is
// staged between two rebuilds is one epoch value (delta.go); the
// Rebuild that consumes it replaces it with an empty one and recycles
// nothing.
// Staging itself only fails at the write-ahead log append: once logged,
// an operation lands in memory by an in-memory pack that cannot fail.
//
// The next generation is derived from the current one: the clean
// shards' manifest entries and indexes are carried verbatim, the rebuilt
// shards' replaced, the world grown to cover them, and the generation
// number is the current manifest's next(). On disk the rebuild is
// crash-safe: each dirty shard writes a complete new generation-suffixed
// page file first (fsynced), then the manifest is atomically swapped to
// reference the new generation, then the old generation is
// garbage-collected. A crash at any point leaves a manifest whose
// referenced files are all complete — before the swap the previous
// generation still opens, after it the new one does.
//
// The dirty shards are bulkloaded by the one bulkload step Build uses
// too (bulkloadShards, at most GOMAXPROCS at once), each filtering its
// elements through the ID-sorted delete runs queries use (deleteView): a
// rebuild costs about what building those shards costs.

package shard

import (
	"fmt"
	"slices"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

// pendingDelete is one staged deletion: the element is identified by
// its full (ID, Box) pair, since IDs are opaque caller keys the index
// never assumes unique. seq orders it against staged inserts so that
// staging follows last-op-wins semantics (a delete only dooms inserts
// staged before it; an insert staged after a matching delete restores
// the element).
type pendingDelete struct {
	ID  uint64
	Box geom.MBR
	seq uint64
}

// stagedInsert is one staged insertion with its staging-order stamp.
type stagedInsert struct {
	el  geom.Element
	seq uint64
}

// deleteMatches reports whether stored element e is the one delete d
// names. IDs must agree; the boxes match when the stored box contains
// the requested one (exact equality included). Containment rather than
// equality is what makes deletes work on page-format-v2 shards, where
// the stored box is the conservative quantized rounding of the inserted
// box — it always contains the original, but rarely equals it bit for
// bit. The original insertion box therefore always matches, as does a
// box obtained from a current query; a box queried before an
// intervening rebuild may not (re-quantization can round differently).
// Duplicate-ID elements whose boxes nest are indistinguishable under
// this rule; staging deletes for such pairs dooms both.
func deleteMatches(d pendingDelete, e geom.Element) bool {
	return d.ID == e.ID && e.Box.Contains(d.Box)
}

// StageInsert stages els for insertion. Staged elements are visible to
// queries immediately (overlaid on the bulkloaded results) and become
// part of a shard's bulkloaded state at the next Rebuild: the shard
// whose bounds need the least enlargement to cover the element (ties to
// the smaller shard volume; see routeShard), the directory-driven
// analogue of the Hilbert assignment the original build used. Staging
// is last-op-wins: inserting an (ID, Box) pair that a pending delete
// doomed restores the element. Safe to call concurrently with queries.
func (s *Set) StageInsert(els ...geom.Element) error {
	for _, e := range els {
		if !e.Box.Valid() {
			return fmt.Errorf("shard: stage insert %d: invalid box %v", e.ID, e.Box)
		}
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	// WAL first: the operations are logged (with the seqs they are about
	// to be staged under) before any of them mutates memory, so a crash
	// can never leave memory ahead of the log. The append is the only step
	// that can fail, and a failed one logged nothing (storage.WAL.Append is
	// all-or-nothing), so memory and log stay in step; durability waits for
	// Flush.
	ins, recs := make([]stagedInsert, len(els)), make([]storage.WALRecord, len(els))
	for i, e := range els {
		ins[i] = stagedInsert{el: e, seq: s.clock + 1 + uint64(i)}
		recs[i] = storage.WALRecord{Op: storage.WALInsert, Seq: ins[i].seq, ID: e.ID, Box: e.Box}
	}
	if s.wal != nil {
		if err := s.wal.Append(recs...); err != nil {
			return err
		}
	}
	s.clock += uint64(len(els))
	s.staged.addInserts(ins)
	return nil
}

// replayWAL restores a staging epoch from its logged operations: each
// record re-stages exactly what the original call staged, seq
// included, so last-op-wins interleaving survives a crash or close.
// The replayed inserts and deletes each land as one batch, so each list
// holds one run. Callers hold pmu's write side.
// flatlint:holds pmu
func (s *Set) replayWAL(recs []storage.WALRecord) {
	ins := make([]stagedInsert, 0, len(recs))
	var dels []pendingDelete
	for _, r := range recs {
		if r.Seq > s.clock {
			s.clock = r.Seq
		}
		switch r.Op {
		case storage.WALInsert:
			ins = append(ins, stagedInsert{el: geom.Element{ID: r.ID, Box: r.Box}, seq: r.Seq})
		case storage.WALDelete:
			dels = append(dels, pendingDelete{ID: r.ID, Box: r.Box, seq: r.Seq})
		}
	}
	s.staged.addDeletes(dels...)
	s.staged.addInserts(ins)
}

// Flush makes every staged operation durable: it fsyncs the
// write-ahead log, so operations staged before a successful Flush
// survive any crash. This is the write path's acknowledgement point —
// between Flush calls, a crash may lose the operations staged since
// the last one (unless the set syncs per op). A memory-backed set keeps
// no log: there is nothing to make durable and Flush is a no-op.
func (s *Set) Flush() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// StageDelete stages the removal of the element with the given ID and
// box (both must match — IDs are opaque caller keys, not assumed
// unique; the stored box matches when it contains the given one, so the
// original insertion box works even on quantized v2-format shards whose
// stored boxes are conservatively rounded — see deleteMatches). The
// element disappears from query results immediately,
// whether it lives in a bulkloaded shard or in the staged inserts, and
// is dropped for good at the next Rebuild; a matching insert staged
// *after* the delete restores it (last-op-wins). Deleting an element
// that does not exist is a no-op that costs one pending entry until
// the next Rebuild. Safe to call concurrently with queries.
func (s *Set) StageDelete(id uint64, box geom.MBR) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.wal != nil {
		rec := storage.WALRecord{Op: storage.WALDelete, Seq: s.clock + 1, ID: id, Box: box}
		if err := s.wal.Append(rec); err != nil {
			return err
		}
	}
	s.clock++
	s.staged.addDeletes(pendingDelete{ID: id, Box: box, seq: s.clock})
	return nil
}

// ShardDeltaStats describes one shard's share of the pending delta.
type ShardDeltaStats struct {
	Shard  int // shard number
	Base   int // bulkloaded elements currently in the shard
	Staged int // staged inserts routed to it
}

// DeltaStats is a point-in-time snapshot of the staged-update state:
// how much delta is pending, how it is distributed over the shards,
// and how many bytes of records the write-ahead log backing it holds:
// what a caller reads to decide when to Rebuild.
type DeltaStats struct {
	Inserts  int               // staged inserts pending, across all shards
	Deletes  int               // staged deletes pending
	WALBytes int64             // bytes of staged records in the write-ahead log, its header not counted (0 for a memory-backed index)
	Shards   []ShardDeltaStats // per-shard breakdown; only shards with staged inserts
}

// DeltaStats snapshots the pending delta. Safe to call concurrently
// with queries and staging.
func (s *Set) DeltaStats() DeltaStats {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	ds := DeltaStats{Inserts: len(s.staged.inserts), Deletes: len(s.staged.deletes)}
	if s.wal != nil {
		ds.WALBytes = s.wal.Size() - storage.WALMagicSize
	}
	for i, ps := range s.routeLocked() {
		if len(ps) > 0 {
			ds.Shards = append(ds.Shards, ShardDeltaStats{Shard: i, Base: s.cur.shards[i].Len(), Staged: len(ps)})
		}
	}
	return ds
}

// DirtyShards returns the shards the staged updates may touch — the
// candidates the next Rebuild will examine, in shard order. A
// candidate whose contents turn out unchanged (its only staged changes
// are deletes that match nothing) is skipped by the rebuild.
func (s *Set) DirtyShards() []int {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.dirtyLocked(s.routeLocked())
}

// dirtyLocked computes the dirty set from routed, routeLocked's result;
// callers hold pmu (either side). A shard is dirty when inserts are
// routed to it or a staged delete's box intersects its bounds (the
// delete may name an element there).
// flatlint:holds pmu
func (s *Set) dirtyLocked(routed [][]int32) []int {
	var dirty []int
	for i, ix := range s.cur.shards {
		if len(routed[i]) > 0 {
			dirty = append(dirty, i)
			continue
		}
		for _, d := range s.staged.deletes {
			if d.Box.Intersects(ix.Bounds()) {
				dirty = append(dirty, i)
				break
			}
		}
	}
	return dirty
}

// routeLocked routes every staged insert to its shard (routeShard) and
// returns, by shard, the positions of its staged inserts in the list, in
// staging order. Callers hold pmu (either side).
// flatlint:holds pmu
func (s *Set) routeLocked() [][]int32 {
	routed := make([][]int32, len(s.cur.shards))
	for p, si := range s.staged.inserts {
		sh := s.routeShard(si.el.Box)
		routed[sh] = append(routed[sh], int32(p))
	}
	return routed
}

// routeShard picks the shard for a staged insert: least bounds
// enlargement, ties broken by smaller current volume then lower shard
// number. Callers hold pmu.
// flatlint:holds pmu
func (s *Set) routeShard(b geom.MBR) int {
	best := 0
	bestEnl, bestVol := -1.0, -1.0
	for i, ix := range s.cur.shards {
		sb := ix.Bounds()
		enl := sb.Enlargement(b)
		vol := sb.Volume()
		if bestEnl < 0 || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

// Rebuild folds the staged updates into the bulkloaded index by
// re-bulkloading only the dirty shards; clean shards keep their page
// files (byte-identical), their mappings, and their directory
// entries. It returns the shard numbers actually re-bulkloaded (nil
// when nothing was staged or no staged change had an effect).
//
// On disk, each dirty shard's new bulkload lands in a fresh
// generation-suffixed page file, the manifest is atomically swapped to
// the new generation, and the old files are garbage-collected — in that
// order, so a crash anywhere leaves a fully openable index (the old
// generation before the manifest swap, the new one after). On failure
// the staged updates stay staged and the set keeps serving the old
// state.
//
// The dirty shards are re-bulkloaded concurrently (bulkloadShards, at
// most GOMAXPROCS at once), so peak memory during a rebuild is
// min(GOMAXPROCS, dirty shards) shards' merged element slices and
// in-memory pages, not one.
//
// Rebuild mutates the set and must not run concurrently with queries or
// other maintenance; the public flat.Index enforces this with its
// ErrBusy guard.
func (s *Set) Rebuild() ([]int, error) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.rebuildLocked(nil)
}

// rebuildLocked is Rebuild with the shards in force dirty besides the
// ones the staged updates touch: each is re-bulkloaded even when nothing
// staged changes it (OpenSet's upgrade of older metadata kinds). Callers
// hold pmu's write side.
// flatlint:holds pmu
func (s *Set) rebuildLocked(force []int) ([]int, error) {
	routed := s.routeLocked()
	dirty := s.dirtyLocked(routed)
	for _, sh := range force {
		if !slices.Contains(dirty, sh) {
			dirty = append(dirty, sh)
		}
	}
	if len(dirty) == 0 {
		return nil, nil
	}
	// One generation number per rebuild, past every one the directory
	// records; a memory-backed set stays at generation 0.
	cur := s.cur
	var gen uint64
	if s.dir != "" {
		var err error
		if gen, err = cur.m.next(); err != nil {
			return nil, err
		}
	}

	// Phase 1: bulkload every dirty shard into a fresh pager. The old
	// state is not touched — the jobs only read it, under the write lock
	// this goroutine holds; any error abandons all the new files.
	dels := s.deleteViewLocked()
	jobs := make([]bulkJob, len(cur.shards))
	for _, sh := range dirty {
		jobs[sh] = func() ([]geom.Element, core.Options, error) {
			els, err := s.mergedElements(sh, routed[sh], dels)
			if err != nil {
				return nil, core.Options{}, fmt.Errorf("shard %d: extract: %w", sh, err)
			}
			// A delete-only dirty shard whose deletes matched nothing is
			// unchanged (deletes only remove, so an unchanged length means an
			// unchanged set); skip the pointless rewrite and keep its file,
			// unless the shard is forced.
			if len(routed[sh]) == 0 && len(els) == cur.shards[sh].Len() && !slices.Contains(force, sh) {
				return nil, core.Options{}, nil
			}
			if len(els) == 0 {
				return nil, core.Options{}, fmt.Errorf("shard: rebuild would leave shard %d empty; dropping a shard needs a full rebuild (shard ids are baked into the remaining shards' page files)", sh)
			}
			// Each shard is re-bulkloaded under its own page format (not a
			// set-wide knob): a directory whose shards were produced under
			// different formats keeps every shard's layout stable across
			// rebuild generations.
			return els, cur.shardOptions(cur.shards[sh].PageFormat()), nil
		}
	}
	fresh, pagers, err := bulkloadShards(s.dir, gen, jobs)
	if err != nil {
		return nil, err
	}
	var rebuilt []int
	for sh, ix := range fresh {
		if ix != nil {
			rebuilt = append(rebuilt, sh)
		}
	}

	// All dirty shards may have been no-op deletes; the staged epoch is
	// consumed either way. This path never touches the manifest, so the
	// WAL is emptied in place rather than rotated: the truncation is
	// crash-safe here precisely because every logged operation is a
	// provable no-op — replaying them (truncate lost) or not (truncate
	// won) yields the same index.
	if len(rebuilt) == 0 {
		if s.wal != nil {
			if err := s.wal.Reset(); err != nil {
				return nil, err
			}
		}
		s.staged = new(epoch)
		return nil, nil
	}

	// Phase 2: derive the next generation from the current one — clean
	// shards' entries carried verbatim, the rebuilt ones' replaced, the
	// world grown to cover them — and, on disk, commit it (see commit).
	// Until that succeeds the old generation remains the authoritative
	// state on disk and in memory, and the staged updates stay in the old
	// log. The commit is also the log's rotation point: it folds the
	// staged updates into the shard files, so the log that held them is
	// spent.
	next := &generation{m: cur.m, shards: slices.Clone(cur.shards), pagers: slices.Clone(cur.pagers)}
	next.m.Entries = slices.Clone(cur.m.Entries)
	world := arrayToMBR(cur.m.World)
	for _, sh := range rebuilt {
		next.m.Entries[sh] = entryFor(sh, gen, fresh[sh])
		next.shards[sh], next.pagers[sh] = fresh[sh], pagers[sh]
		world = world.Union(fresh[sh].Bounds())
	}
	next.m.World = mbrToArray(world)
	gc := func() {}
	if s.dir != "" {
		var newWAL *storage.WAL
		if newWAL, gc, err = commit(s.dir, &next.m); err != nil {
			discardShards(s.dir, gen, pagers)
			return nil, err
		}
		// The manifest now references the new log; the old one is
		// garbage for gc below.
		s.wal.Close()
		s.wal = newWAL
	}

	// Phase 3: publish the next generation; nothing below can fail. The
	// rebuilt shards' old pagers are closed; the clean shards keep theirs.
	s.cur = next
	for _, sh := range rebuilt {
		cur.pagers[sh].Close()
	}
	// Phase 4 (disk): the old generation's files are garbage now that the
	// manifest no longer references them.
	gc()

	s.staged = new(epoch)
	return rebuilt, nil
}

// mergedElements materializes dirty shard sh's post-rebuild element
// set: its bulkloaded elements and the staged inserts at positions ins
// (those routed to it), minus the staged deletes (each insert doomed
// only by deletes staged after it — last-op-wins, matching the query
// overlay exactly: dels is the same view a query filters through).
// Callers hold pmu.
// flatlint:holds pmu
func (s *Set) mergedElements(sh int, ins []int32, dels deleteView) ([]geom.Element, error) {
	// The object pages enumerate the shard, whatever kind its metadata
	// pages are.
	all, err := s.cur.shards[sh].Elements()
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, e := range all {
		if !dels.matches(e) {
			kept = append(kept, e)
		}
	}
	if n := len(kept) + len(ins); n > cap(kept) {
		// One exact reallocation, not append's growth by a quarter.
		kept = append(make([]geom.Element, 0, n), kept...)
	}
	for _, p := range ins {
		if si := s.staged.inserts[p]; !dels.matchesAfter(si.el, si.seq) {
			kept = append(kept, si.el)
		}
	}
	return kept, nil
}
