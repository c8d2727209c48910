package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"syscall"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/storage"
)

// On-disk layout of a sharded index directory:
//
//	<dir>/MANIFEST.json            shard directory (see manifest below)
//	<dir>/shard-0000.flat          shard 0, generation 0 (superblock last)
//	<dir>/shard-0001.gen-3.flat    shard 1, generation 3
//	...
//
// A shard file's name is a function of its shard and generation
// (shardFileName), and readManifest refuses an entry naming any other
// file: the generation numbers alone say which files an index owns, so
// the next generation's files can never land on a committed one's.
//
// Each shard file is an ordinary FLAT page file whose stored page ids
// carry the shard's tag (it is bulkloaded through the shard's view,
// storage.NewShardView), so opening serves each file through the same
// view over its mapping with no translation pass.
//
// The manifest is the commit point of every build and rebuild: shard
// files are written and fsynced first under fresh generation-suffixed
// names, then the manifest is atomically replaced (temp file + fsync +
// rename), then files no longer referenced are garbage-collected. A
// crash at any point leaves either the old or the new manifest in
// place, and every file the surviving manifest references is complete —
// the previous generation stays fully openable. Unreferenced files that
// a crash may strand are removed by the next successful build/rebuild's
// GC pass and are ignored by Open.

// manifestName is the manifest file's name within the index directory.
const manifestName = "MANIFEST.json"

// manifestTempName is the scratch file the manifest is staged in before
// the atomic rename; a leftover one (torn write) is ignored and GCed.
const manifestTempName = manifestName + ".tmp"

// manifestV2 is the only manifest version read or written.
const manifestV2 = 2

// shardEntry describes one shard in the manifest.
type shardEntry struct {
	// File is the shard's page-file name within the index directory:
	// always shardFileName(shard, Generation).
	File string `json:"file"`
	// Generation counts this shard's rebuilds; each rebuild writes a new
	// file under a fresh generation-suffixed name.
	Generation uint64 `json:"generation"`
	// Bounds is the shard's data bounds (min x,y,z then max x,y,z).
	Bounds [6]float64 `json:"bounds"`
	// Elements is the shard's element count, cross-checked on Open.
	Elements int `json:"elements"`
	// PageFormat is the shard's object-page format (storage.PageFormat);
	// 0 — and absent, in manifests written before page format v2 existed —
	// means v1. It is recorded per shard, not per index, because rebuilds
	// preserve each shard's format: generations of a directory whose
	// shards were produced under different formats open and query
	// together (every page decode is self-describing; this field is the
	// cross-check against each shard's superblock).
	PageFormat int `json:"page_format,omitempty"`
}

type manifest struct {
	Version int        `json:"version"`
	Shards  int        `json:"shards"`
	World   [6]float64 `json:"world"` // min x,y,z then max x,y,z
	// Build knobs, persisted so a reopened index rebuilds its shards
	// exactly as the original build did (0 = the core defaults).
	PageCapacity int `json:"page_capacity,omitempty"`
	SeedFanout   int `json:"seed_fanout,omitempty"`
	// Entries is the per-shard directory.
	Entries []shardEntry `json:"entries,omitempty"`
	// WAL names the write-ahead log file of the staged-update write path
	// (within the index directory; empty for indexes without one). The
	// referenced file is created and synced before the manifest commits
	// it, and rebuilds rotate to a fresh generation-suffixed log at the
	// same commit point that folds the staged updates in, so the log an
	// opened manifest references never holds operations the shard files
	// already contain.
	WAL string `json:"wal,omitempty"`
}

// manifestFormat converts an index's page format to its manifest
// encoding: the default v1 is stored as 0 so that v1-format builds keep
// producing manifests byte-identical to those written before the field
// existed.
func manifestFormat(f storage.PageFormat) int {
	if f == storage.PageFormatV1 {
		return 0
	}
	return int(f)
}

// entryFor is the manifest's record of shard s as bulkloaded into ix at
// generation gen.
func entryFor(s int, gen uint64, ix *core.Index) shardEntry {
	return shardEntry{
		File:       shardFileName(s, gen),
		Generation: gen,
		Bounds:     mbrToArray(ix.Bounds()),
		Elements:   ix.Len(),
		PageFormat: manifestFormat(ix.PageFormat()),
	}
}

func mbrToArray(m geom.MBR) [6]float64 {
	return [6]float64{m.Min.X, m.Min.Y, m.Min.Z, m.Max.X, m.Max.Y, m.Max.Z}
}

func arrayToMBR(a [6]float64) geom.MBR {
	return geom.MBR{Min: geom.V(a[0], a[1], a[2]), Max: geom.V(a[3], a[4], a[5])}
}

// shardFileName returns the page-file name of shard s at generation
// gen. Generation 0 keeps the un-suffixed name fresh builds have
// always used.
func shardFileName(s int, gen uint64) string {
	if gen == 0 {
		return fmt.Sprintf("shard-%04d.flat", s)
	}
	return fmt.Sprintf("shard-%04d.gen-%d.flat", s, gen)
}

// shardFilePattern matches any shard page file, any generation; the GC
// pass uses it to recognize strandable files without touching anything
// else a user may keep in the directory. %04d widens past four digits
// (MaxShards is 65536), hence \d{4,}.
var shardFilePattern = regexp.MustCompile(`^shard-\d{4,}(\.gen-\d+)?\.flat$`)

// walFileName returns the write-ahead log's file name at generation
// gen; like shard files, rebuilds rotate to a fresh suffixed name so
// the swap from old log to new is the manifest rename, never an
// in-place truncation a crash could tear.
func walFileName(gen uint64) string {
	if gen == 0 {
		return "wal.log"
	}
	return fmt.Sprintf("wal.gen-%d.log", gen)
}

// walFilePattern recognizes WAL files of any generation for the GC
// pass, mirroring shardFilePattern.
var walFilePattern = regexp.MustCompile(`^wal(\.gen-\d+)?\.log$`)

// commit is the one commit step of an index directory (the protocol at
// the top of this file); Build, Rebuild and the open-time WAL upgrade all
// publish through it. The shard files m references are already durable
// (bulkloadShards' job). In order:
//
//   - When m names a log, a fresh one is created there and fsynced —
//     durable, like the shard files, before a manifest names it. Callers
//     name it after the generation they commit, so a rebuild rotates to
//     it rather than truncating its old log:
//     a crash between swap and truncate would replay operations the shard
//     files already contain, so the manifest rename is the truncation.
//   - The manifest swap is the commit point. A hard failure removes the
//     fresh log and is returned: the directory still commits what it did,
//     and the caller removes the shard files it wrote.
//   - A swap that landed but is not durable (errManifestNotDurable) is
//     honored — the new files may not be removed — but gc then does
//     nothing, so a crash that loses the rename still finds the old files.
//   - Otherwise gc removes every shard file and log the committed manifest
//     does not reference (old generations, a larger previous K, strands of
//     a crashed build). It is returned, not run, because Rebuild first
//     swaps its in-memory state and closes the old generation's pagers.
//
// commit returns the fresh log (nil when m names none).
func commit(dir string, m manifest) (wal *storage.WAL, gc func(), err error) {
	if m.WAL != "" {
		if wal, err = storage.CreateWAL(filepath.Join(dir, m.WAL)); err != nil {
			return nil, nil, err
		}
		err = wal.Sync()
	}
	if err == nil {
		err = writeManifest(dir, m)
	}
	switch {
	case err == nil:
	case errors.Is(err, errManifestNotDurable):
		return wal, func() {}, nil
	default:
		if wal != nil {
			wal.Close()
			os.Remove(wal.Path())
		}
		return nil, nil, err
	}
	return wal, func() {
		keep := make(map[string]bool, len(m.Entries)+1)
		for _, e := range m.Entries {
			keep[e.File] = true
		}
		if m.WAL != "" {
			keep[m.WAL] = true
		}
		gcStale(dir, keep)
	}, nil
}

// writeManifest atomically replaces dir's manifest: the JSON is staged
// in a temp file in the same directory, fsynced, and renamed over
// manifestName. The rename is the commit point every build and rebuild
// relies on — a crash mid-write leaves the old manifest untouched.
func writeManifest(dir string, m manifest) error {
	m.Version = manifestV2
	m.Shards = len(m.Entries)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, manifestTempName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("shard: stage manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("shard: stage manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("shard: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: close manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: commit manifest: %w", err)
	}
	// Make the rename itself durable. Past this point the swap has
	// already happened in the file system's logical state, so a sync
	// failure is reported as errManifestNotDurable: callers must treat
	// the new manifest as committed (its files may NOT be deleted) but
	// should keep the old generation's files in case a crash loses the
	// un-synced rename.
	if d, err := os.Open(dir); err == nil {
		syncErr := d.Sync()
		d.Close()
		if syncErr != nil {
			return fmt.Errorf("shard: sync index dir: %v: %w", syncErr, errManifestNotDurable)
		}
	}
	return nil
}

// errManifestNotDurable marks a writeManifest outcome where the
// manifest swap succeeded (the new manifest is in place and must be
// honored) but could not be fsynced to disk.
var errManifestNotDurable = errors.New("shard: manifest swap committed but not durable")

// readManifest loads and validates dir's manifest.
func readManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, syscall.ENOTDIR) {
		return manifest{}, fmt.Errorf("shard: %s is not a directory: a disk-backed index is a directory holding %s", dir, manifestName)
	}
	if err != nil {
		return manifest{}, fmt.Errorf("shard: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if m.Version != manifestV2 {
		return manifest{}, fmt.Errorf("shard: unsupported manifest version %d", m.Version)
	}
	if len(m.Entries) < 1 || len(m.Entries) > storage.MaxShards {
		return manifest{}, fmt.Errorf("shard: manifest entry count %d out of range", len(m.Entries))
	}
	if m.Shards != len(m.Entries) {
		return manifest{}, fmt.Errorf("shard: manifest shard count %d does not match its %d entries", m.Shards, len(m.Entries))
	}
	for s, e := range m.Entries {
		if want := shardFileName(s, e.Generation); e.File != want {
			return manifest{}, fmt.Errorf("shard: manifest entry %d names file %q, but shard %d at generation %d is %q", s, e.File, s, e.Generation, want)
		}
		if e.PageFormat != 0 && !storage.PageFormat(e.PageFormat).Valid() {
			return manifest{}, fmt.Errorf("shard: manifest entry %d has unknown page format %d", s, e.PageFormat)
		}
	}
	if m.WAL != "" && m.WAL != filepath.Base(m.WAL) {
		return manifest{}, fmt.Errorf("shard: manifest has invalid wal file name %q", m.WAL)
	}
	return m, nil
}

// nextGeneration returns the generation a new build into dir should
// write its shard files under: 0 for a fresh (or manifest-less)
// directory, the committed manifest's next() when one already commits an
// index there — so the old index's files are never overwritten and stay
// openable until the new manifest lands. A manifest that exists but
// cannot be read is an error: building at generation 0 would truncate
// the page files the unreadable manifest may still reference.
func nextGeneration(dir string) (uint64, error) {
	m, err := readManifest(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("shard: directory holds an index that cannot be read (remove it to force a fresh build): %w", err)
	}
	return m.next()
}

// generation returns the largest generation m records.
func (m *manifest) generation() uint64 {
	var gen uint64
	for _, e := range m.Entries {
		gen = max(gen, e.Generation)
	}
	return gen
}

// next is the one next-generation rule: the generation the directory's
// next build or rebuild writes under, one past every one m records.
// File names are a function of shard and generation (checked on read),
// so no file m references can be overwritten by the new one's.
func (m *manifest) next() (uint64, error) {
	gen := m.generation()
	if gen == math.MaxUint64 {
		// gen+1 would wrap to generation 0: the un-suffixed file names
		// the manifest may reference.
		return 0, fmt.Errorf("shard: manifest references generation %d, the last one", gen)
	}
	return gen + 1, nil
}

// gcStale removes every shard page file in dir that keep does not
// reference, plus any leftover manifest temp file. It runs after a
// successful manifest swap, when the unreferenced files are garbage by
// construction (old generations, stale shards of a previous K, strands
// of a crashed build). Removal failures are ignored: a stray file costs
// disk space, not correctness, and the next GC retries.
func gcStale(dir string, keep map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		stale := shardFilePattern.MatchString(name) || walFilePattern.MatchString(name)
		if name == manifestTempName || (stale && !keep[name]) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
