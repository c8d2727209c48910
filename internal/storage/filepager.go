package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// FilePager writes a page file of 4 KiB pages: a shard is bulkloaded
// through one, which is then synced and closed, and the committed file is
// served through its read-only mapping (MmapPager). Like MemPager it
// keeps the category each page was allocated with, in memory only: they
// are a measurement aid, not part of the persistent format.
//
// Alloc writes nothing: a page is written once, by WritePage, and the
// file may end before the last allocated page until Sync extends it to
// NumPages pages. A page allocated but never written reads as zeros,
// before and after that.
type FilePager struct {
	f     *os.File
	n     uint64
	cats  []Category
	dirty bool
}

// CreateFilePager creates (truncating) a page file at path.
func CreateFilePager(path string) (*FilePager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create page file: %w", err)
	}
	return &FilePager{f: f}, nil
}

// Alloc implements Pager. It only counts the page: the file grows when
// the page is written, or at the next Sync.
func (p *FilePager) Alloc(cat Category) (PageID, error) {
	id := PageID(p.n)
	p.n++
	p.cats = append(p.cats, cat)
	p.dirty = true
	return id, nil
}

// ReadPage implements Pager: it reads the page into a new buffer.
func (p *FilePager) ReadPage(id PageID) ([]byte, error) {
	if uint64(id) >= p.n {
		return nil, ErrPageOutOfRange
	}
	dst := make([]byte, PageSize)
	_, err := p.f.ReadAt(dst, int64(id)*PageSize)
	if errors.Is(err, io.EOF) {
		// Allocated but past the end of the file: never written, so the
		// rest of dst stays zero.
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return dst, nil
}

// WritePage implements Pager.
func (p *FilePager) WritePage(id PageID, src []byte) error {
	if err := checkBuf(src, "write"); err != nil {
		return err
	}
	if uint64(id) >= p.n {
		return ErrPageOutOfRange
	}
	if _, err := p.f.WriteAt(src[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	p.dirty = true
	return nil
}

// CategoryOf implements Pager.
func (p *FilePager) CategoryOf(id PageID) Category {
	if uint64(id) >= uint64(len(p.cats)) {
		return CatUnknown
	}
	return p.cats[id]
}

// NumPages implements Pager.
func (p *FilePager) NumPages() uint64 { return p.n }

// Sync implements Pager. It first extends the file to NumPages pages,
// so pages allocated after the last one written are there, as zeros.
func (p *FilePager) Sync() error {
	if !p.dirty {
		return nil
	}
	if err := p.f.Truncate(int64(p.n) * PageSize); err != nil {
		return fmt.Errorf("storage: extend page file: %w", err)
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync page file: %w", err)
	}
	p.dirty = false
	return nil
}

// Close implements Pager.
func (p *FilePager) Close() error {
	if err := p.Sync(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}
