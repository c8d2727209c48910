package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"flat/internal/geom"
)

func walRecordsEqual(a, b WALRecord) bool {
	return a.Op == b.Op && a.Seq == b.Seq && a.ID == b.ID && a.Box == b.Box
}

func testRecords(n int) []WALRecord {
	recs := make([]WALRecord, n)
	for i := range recs {
		op := WALInsert
		if i%3 == 2 {
			op = WALDelete
		}
		f := float64(i)
		recs[i] = WALRecord{
			Op:  op,
			Seq: uint64(i + 1),
			ID:  uint64(1000 + i),
			Box: geom.Box(geom.V(f, f+0.5, f+1), geom.V(f+2, f+3, f+4)),
		}
	}
	return recs
}

func TestWALRecordRoundTrip(t *testing.T) {
	for _, r := range testRecords(7) {
		buf := encodeWALRecord(nil, r)
		got, n, err := decodeWALRecord(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if !walRecordsEqual(got, r) {
			t.Fatalf("round trip: got %+v, want %+v", got, r)
		}
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(25)
	if err := w.Append(recs[:10]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[10:]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, replayed, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(replayed) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(recs))
	}
	for i := range recs {
		if !walRecordsEqual(replayed[i], recs[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, replayed[i], recs[i])
		}
	}
	// The log stays appendable after replay.
	extra := WALRecord{Op: WALDelete, Seq: 99, ID: 7, Box: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))}
	if err := reopened.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTail cuts the file mid-record (a crash during an append):
// replay must recover exactly the records before the tear and truncate
// the file so later appends extend a clean log.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(9)
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(1); cut < walRecordSize; cut += 13 {
		torn := fi.Size() - cut
		if err := os.Truncate(path, torn); err != nil {
			t.Fatal(err)
		}
		reopened, replayed, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(replayed) != len(recs)-1 {
			reopened.Close()
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(replayed), len(recs)-1)
		}
		if got := reopened.Size(); got != int64(len(walMagic)+(len(recs)-1)*walRecordSize) {
			reopened.Close()
			t.Fatalf("cut %d: torn tail not truncated (size %d)", cut, got)
		}
		reopened.Close()
	}
}

// TestWALBitFlip corrupts one payload byte of a middle record: replay
// must stop there, recovering exactly the records before it — a prefix,
// never a subset with holes.
func TestWALBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(9)
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	const victim = 4 // corrupt record 4's payload
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(walMagic) + victim*walRecordSize + walHeaderSize + 3
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, replayed, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(replayed) != victim {
		t.Fatalf("replayed %d records past a corrupt record %d", len(replayed), victim)
	}
	for i := range replayed {
		if !walRecordsEqual(replayed[i], recs[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, replayed[i], recs[i])
		}
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecords(5)...); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := w.Size(); got != int64(len(walMagic)) {
		t.Fatalf("size after reset: %d", got)
	}
	w.Close()
	_, replayed, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("replayed %d records from a reset log", len(replayed))
	}
}

func TestWALBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("hello, disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("opening a non-WAL file: err = %v, want ErrWALCorrupt", err)
	}
	if err := os.WriteFile(path, walMagic[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("opening a truncated header: err = %v, want ErrWALCorrupt", err)
	}
}
