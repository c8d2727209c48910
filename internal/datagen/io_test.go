package datagen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"flat/internal/geom"
)

func TestElementsIORoundTrip(t *testing.T) {
	els := UniformBoxes(UniformSpec{N: 500, World: world8mm(), Seed: 11})
	var buf bytes.Buffer
	if err := WriteElements(&buf, els); err != nil {
		t.Fatal(err)
	}
	got, err := ReadElements(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(els) {
		t.Fatalf("count = %d, want %d", len(got), len(els))
	}
	for i := range got {
		if got[i] != els[i] {
			t.Fatalf("element %d mismatch: %+v != %+v", i, got[i], els[i])
		}
	}
}

func TestElementsIOEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteElements(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadElements(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d", len(got))
	}
}

func TestElementsIOBadInput(t *testing.T) {
	if _, err := ReadElements(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadElements(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated body.
	els := UniformBoxes(UniformSpec{N: 10, World: world8mm(), Seed: 12})
	var buf bytes.Buffer
	if err := WriteElements(&buf, els); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-20]
	if _, err := ReadElements(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input accepted")
	}
	// A header claiming 2^31 elements over a 3-element body is a
	// truncated file, found after reading three elements — not a 120 GB
	// allocation made on the header's word.
	claim := append([]byte(nil), buf.Bytes()[:16+3*elementSize]...)
	binary.LittleEndian.PutUint64(claim[8:], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadElements(bytes.NewReader(claim))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("2^31 claimed elements over a 3-element body: %v, want a truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("reading a 3-element body allocated %d bytes", grew)
	}
}

func TestSaveLoadElements(t *testing.T) {
	path := filepath.Join(t.TempDir(), "els.flte")
	els := []geom.Element{
		{ID: 1, Box: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))},
		{ID: 2, Box: geom.Box(geom.V(-5, 0, 2), geom.V(0, 3, 4))},
	}
	if err := SaveElements(path, els); err != nil {
		t.Fatal(err)
	}
	got, err := LoadElements(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != els[0] || got[1] != els[1] {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if _, err := LoadElements(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}
