// Write-ahead log for the staged-update write path.
//
// The index stages inserts and deletes in memory between
// rebuilds; before the WAL existed, a crash between StageInsert and
// Rebuild silently lost the delta. The WAL closes that hole: every
// staged operation is appended here first, and replayed on open, so
// an operation acknowledged by a Sync (flat.Index.Flush)
// survives any crash.
//
// On-disk format:
//
//	[8]  magic "FLATWAL\x01"
//	per record:
//	  [4] payload length, little-endian uint32
//	  [4] CRC32 (IEEE) of the payload
//	  [n] payload: op (u8), seq (u64), id (u64), box (6 x f64)
//
// The log is append-only and torn-tail tolerant: replay stops at the
// first record whose length or checksum does not verify, truncates the
// file back to the last valid record, and returns the valid prefix.
// That is exactly the crash contract a log needs — a torn append (the
// crash hit mid-write) loses only the unacknowledged tail, never a
// record an earlier Sync made durable.
//
// The WAL is not internally synchronized; the shard.Set serializes all
// appends under its staging mutex.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"flat/internal/geom"
)

// WALOp tags a WAL record as an insert or a delete.
type WALOp uint8

const (
	// WALInsert records a StageInsert of (ID, Box).
	WALInsert WALOp = 1
	// WALDelete records a StageDelete of (ID, Box).
	WALDelete WALOp = 2
)

// WALRecord is one logged staging operation. Seq is the staging-order
// stamp the last-op-wins overlay semantics rest on; replay restores it
// verbatim so a delete logged after an insert still dooms it (and only
// it) after a crash.
type WALRecord struct {
	Op  WALOp
	Seq uint64
	ID  uint64
	Box geom.MBR
}

// walMagic opens every WAL file; the trailing byte is the format
// version.
var walMagic = [WALMagicSize]byte{'F', 'L', 'A', 'T', 'W', 'A', 'L', 1}

// WALMagicSize is the length of the header every log opens with.
const WALMagicSize = 8

const (
	// walHeaderSize is the fixed per-record frame: length + CRC32.
	walHeaderSize = 8
	// walPayloadSize is the fixed payload of a version-1 record:
	// op (1) + seq (8) + id (8) + box (48).
	walPayloadSize = 1 + 8 + 8 + 6*8
	walRecordSize  = walHeaderSize + walPayloadSize
)

// ErrWALCorrupt reports a WAL whose header is unreadable — the file is
// not a WAL at all, or lost its first 8 bytes. A bad or torn *record*
// is not corruption (the valid prefix is recovered); a bad header means
// nothing can be trusted.
var ErrWALCorrupt = errors.New("storage: not a WAL file (bad magic)")

// encodeWALRecord appends r's wire encoding to dst and returns the
// extended slice. Box coordinates round-trip bit-exactly (they are
// stored as raw IEEE-754 words), so replay restores the staged box
// byte for byte.
func encodeWALRecord(dst []byte, r WALRecord) []byte {
	var payload [walPayloadSize]byte
	payload[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(payload[1:], r.Seq)
	binary.LittleEndian.PutUint64(payload[9:], r.ID)
	for i, f := range [6]float64{r.Box.Min.X, r.Box.Min.Y, r.Box.Min.Z, r.Box.Max.X, r.Box.Max.Y, r.Box.Max.Z} {
		binary.LittleEndian.PutUint64(payload[17+8*i:], math.Float64bits(f))
	}
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], walPayloadSize)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload[:]))
	dst = append(dst, hdr[:]...)
	return append(dst, payload[:]...)
}

// decodeWALRecord parses one record from the front of b, returning the
// record and the number of bytes consumed. Any failure — a truncated
// frame, a length this version does not produce, a checksum mismatch,
// an unknown op — returns an error; replay treats every such error as
// the torn tail of the log.
func decodeWALRecord(b []byte) (WALRecord, int, error) {
	if len(b) < walHeaderSize {
		return WALRecord{}, 0, fmt.Errorf("storage: wal record: truncated header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:])
	if n != walPayloadSize {
		return WALRecord{}, 0, fmt.Errorf("storage: wal record: payload length %d, want %d", n, walPayloadSize)
	}
	if len(b) < walRecordSize {
		return WALRecord{}, 0, fmt.Errorf("storage: wal record: truncated payload (%d of %d bytes)", len(b)-walHeaderSize, walPayloadSize)
	}
	payload := b[walHeaderSize:walRecordSize]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(b[4:]) {
		return WALRecord{}, 0, fmt.Errorf("storage: wal record: checksum mismatch")
	}
	r := WALRecord{
		Op:  WALOp(payload[0]),
		Seq: binary.LittleEndian.Uint64(payload[1:]),
		ID:  binary.LittleEndian.Uint64(payload[9:]),
	}
	if r.Op != WALInsert && r.Op != WALDelete {
		return WALRecord{}, 0, fmt.Errorf("storage: wal record: unknown op %d", payload[0])
	}
	var c [6]float64
	for i := range c {
		c[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[17+8*i:]))
	}
	r.Box = geom.MBR{Min: geom.V(c[0], c[1], c[2]), Max: geom.V(c[3], c[4], c[5])}
	return r, walRecordSize, nil
}

// WAL is an open write-ahead log. Append buffers nothing — records hit
// the OS immediately — but durability is explicit: an operation is
// crash-safe only once a later Sync returns. Not safe for concurrent
// use; callers serialize (shard.Set uses its staging mutex).
type WAL struct {
	f     *os.File
	path  string
	size  int64 // current append offset (header included)
	dirty bool  // unsynced writes outstanding
}

// CreateWAL creates (or truncates) a WAL at path and writes its header.
// The header is not yet durable: callers on a commit path must Sync
// before publishing the file (e.g. referencing it from a manifest).
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create wal: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("storage: create wal: %w", err)
	}
	return &WAL{f: f, path: path, size: int64(len(walMagic)), dirty: true}, nil
}

// OpenWAL opens the WAL at path and replays it: the returned records
// are the valid prefix of the log, in append order. A torn or corrupt
// tail — a partial final record, a bit flip anywhere after the last
// valid record — is truncated away (and the truncation synced) so
// subsequent appends extend a clean log; everything before it is
// returned intact. Only a bad file header is unrecoverable
// (ErrWALCorrupt).
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: open wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: read wal: %w", err)
	}
	if len(data) < len(walMagic) || [8]byte(data[:8]) != walMagic {
		f.Close()
		return nil, nil, fmt.Errorf("storage: %s: %w", path, ErrWALCorrupt)
	}
	var recs []WALRecord
	off := len(walMagic)
	for off < len(data) {
		r, n, err := decodeWALRecord(data[off:])
		if err != nil {
			break // torn tail: keep the valid prefix
		}
		recs = append(recs, r)
		off += n
	}
	w := &WAL{f: f, path: path, size: int64(off)}
	if off < len(data) {
		// Drop the torn tail now, so the crash leftover cannot be
		// misread as a prefix of the next appended record.
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("storage: sync truncated wal: %w", err)
		}
	}
	return w, recs, nil
}

// Append logs recs at the end of the WAL. The write is all-or-nothing
// at the API level: on error the file is restored to its prior length
// (best effort — a crash mid-append leaves a torn tail, which replay
// drops), and none of recs count as logged.
func (w *WAL) Append(recs ...WALRecord) error {
	if len(recs) == 0 {
		return nil
	}
	buf := make([]byte, 0, len(recs)*walRecordSize)
	for _, r := range recs {
		buf = encodeWALRecord(buf, r)
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		w.f.Truncate(w.size) // best effort: drop any partial tail
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.size += int64(len(buf))
	w.dirty = true
	return nil
}

// Sync makes every appended record durable. This is the acknowledgement
// point of the write path: records appended before a successful Sync
// survive any crash; records appended after it may not.
func (w *WAL) Sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal sync: %w", err)
	}
	w.dirty = false
	return nil
}

// Reset empties the log back to its header, durably. Rebuild uses it
// when a staged epoch was consumed without touching the manifest (all
// deletes matched nothing): the logged operations are no-ops by then,
// and an in-place truncate cannot tear — the file is either still full
// (replaying harmless no-ops) or empty.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("storage: wal reset: %w", err)
	}
	w.size = int64(len(walMagic))
	w.dirty = true
	return w.Sync()
}

// Size returns the log's current length in bytes, header included.
func (w *WAL) Size() int64 { return w.size }

// Path returns the file path the WAL was opened at.
func (w *WAL) Path() string { return w.path }

// Close releases the file handle without syncing; call Sync first to
// acknowledge outstanding appends.
func (w *WAL) Close() error { return w.f.Close() }
