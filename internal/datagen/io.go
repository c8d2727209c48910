package datagen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"flat/internal/geom"
)

// Binary element-file format used by the CLI tools (cmd/flatgen writes,
// cmd/flatindex reads):
//
//	magic "FLTE" | version u32 | count u64 | count x (id u64, 6 x f64)
//
// All integers and floats are little-endian.
const (
	fileMagic   = "FLTE"
	fileVersion = 1
	elementSize = 8 + 6*8
)

// WriteElements serializes els to w.
func WriteElements(w io.Writer, els []geom.Element) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], fileVersion)
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(els)))
	if _, err := bw.Write(u64[:]); err != nil {
		return err
	}
	for _, e := range els {
		binary.LittleEndian.PutUint64(u64[:], e.ID)
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
		for _, f := range [6]float64{
			e.Box.Min.X, e.Box.Min.Y, e.Box.Min.Z,
			e.Box.Max.X, e.Box.Max.Y, e.Box.Max.Z,
		} {
			binary.LittleEndian.PutUint64(u64[:], math.Float64bits(f))
			if _, err := bw.Write(u64[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadElements deserializes an element file from r.
func ReadElements(r io.Reader) ([]geom.Element, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("datagen: read magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("datagen: bad magic %q", magic)
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(u32[:]); v != fileVersion {
		return nil, fmt.Errorf("datagen: unsupported version %d", v)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(u64[:])
	const maxElements = 1 << 31
	if count > maxElements {
		return nil, fmt.Errorf("datagen: implausible element count %d", count)
	}
	// The count is a claim, not yet a fact: memory is committed only as
	// elements are actually read (append grows past the first chunk), so
	// a 16-byte header cannot ask for gigabytes.
	const chunk = 1 << 16
	els := make([]geom.Element, 0, min(count, chunk))
	var rec [elementSize]byte
	f := func(j int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*j:])) }
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("datagen: element %d of %d: %w", i, count, err)
		}
		els = append(els, geom.Element{
			ID:  binary.LittleEndian.Uint64(rec[:]),
			Box: geom.MBR{Min: geom.V(f(0), f(1), f(2)), Max: geom.V(f(3), f(4), f(5))},
		})
	}
	return els, nil
}

// SaveElements writes els to a file at path.
func SaveElements(path string, els []geom.Element) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteElements(f, els); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadElements reads an element file from path.
func LoadElements(path string) ([]geom.Element, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadElements(f)
}
