// Fixtures for the codecbounds analyzer: raw indexing or slicing of a
// page buffer (the []byte a pool or pager read returns) is banned
// outside the storage package — layouts are decoded by the storage
// codec only.
package codecbounds

type PageID uint64

type pool struct{}

func (pool) ReadInto(id PageID, st *int) ([]byte, error) { return nil, nil }
func (pool) ReadPage(id PageID) ([]byte, error)          { return nil, nil }

func decode(buf []byte) int { return len(buf) }

// kindByte peeks at the layout directly.
func kindByte(p pool, id PageID) byte {
	buf, _ := p.ReadPage(id)
	return buf[0] // want `raw page-buffer indexing outside internal/storage`
}

// header slices the first bytes off a buffer from ReadInto.
func header(p pool, id PageID) []byte {
	var st int
	buf, _ := p.ReadInto(id, &st)
	return buf[:52] // want `raw page-buffer slicing outside internal/storage`
}

// reassigned catches plain = assignment, not just :=.
func reassigned(p pool, id PageID) byte {
	var buf []byte
	buf, _ = p.ReadPage(id)
	return buf[1] // want `raw page-buffer indexing outside internal/storage`
}

// whole hands the full buffer to a decoder — the sanctioned pattern.
func whole(p pool, id PageID) int {
	buf, _ := p.ReadInto(id, nil)
	return decode(buf)
}

// unrelated slicing of a buffer that never came from a page read is
// fine.
func unrelated(data []byte) []byte {
	return data[2:8]
}

// readers with a non-PageID first argument are not page reads.
type file struct{}

func (file) Read(b []byte) (int, error) { return 0, nil }

func notAPageRead(f file, b []byte) byte {
	n, _ := f.Read(b)
	_ = n
	return b[0]
}

// suppressed documents a legitimate raw-byte need.
func suppressed(p pool, id PageID) byte {
	buf, _ := p.ReadPage(id)
	//lint:ignore codecbounds fixture: checksums the raw page bytes
	return buf[4095]
}

// scopes are per function: a buffer in one function does not taint a
// like-named variable in another (see whole/unrelated), and a nested
// literal is its own scope.
func nested(p pool, id PageID) func() []byte {
	buf, _ := p.ReadPage(id)
	_ = buf
	return func() []byte {
		buf := []byte{1, 2, 3}
		return buf[0:1]
	}
}
