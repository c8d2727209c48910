package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
)

// MemPager is an in-memory Pager, the one every index is bulkloaded
// into; a directory's shard is then written to its file (WriteFile).
// The paper's metric is page reads, which the pool counts identically
// whether the bytes come from memory or a mapped file, and an in-memory
// backing keeps the density sweeps fast and deterministic.
//
// Each written page is its own slice, which ReadPage hands out as is:
// WritePage installs a fresh slice rather than overwriting the stored
// one, so a page read earlier keeps its bytes.
type MemPager struct {
	pages [][]byte
	cats  []Category
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

// Alloc implements Pager. The page takes no memory until it is
// written.
func (m *MemPager) Alloc(cat Category) (PageID, error) {
	m.pages = append(m.pages, nil)
	m.cats = append(m.cats, cat)
	return PageID(len(m.pages) - 1), nil
}

// ReadPage implements Pager: it returns the page's stored slice, or
// a fresh zeroed page if the page was never written.
func (m *MemPager) ReadPage(id PageID) ([]byte, error) {
	if uint64(id) >= uint64(len(m.pages)) {
		return nil, ErrPageOutOfRange
	}
	if m.pages[id] == nil {
		return make([]byte, PageSize), nil
	}
	return m.pages[id], nil
}

// WritePage implements Pager.
func (m *MemPager) WritePage(id PageID, src []byte) error {
	if err := checkBuf(src, "write"); err != nil {
		return err
	}
	if uint64(id) >= uint64(len(m.pages)) {
		return ErrPageOutOfRange
	}
	m.pages[id] = bytes.Clone(src[:PageSize])
	return nil
}

// CategoryOf implements Pager.
func (m *MemPager) CategoryOf(id PageID) Category {
	if uint64(id) >= uint64(len(m.cats)) {
		return CatUnknown
	}
	return m.cats[id]
}

// NumPages implements Pager.
func (m *MemPager) NumPages() uint64 { return uint64(len(m.pages)) }

// WriteFile writes every page, in page order and a page never written
// as zeros, to a page file at path, created or truncated, and fsyncs and
// closes it: the file is durable when this returns. On any later error
// the file is removed.
func (m *MemPager) WriteFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create page file: %w", err)
	}
	zero := make([]byte, PageSize)
	for _, page := range m.pages {
		if page == nil {
			page = zero
		}
		if _, err = f.Write(page); err != nil {
			break
		}
	}
	if err = errors.Join(err, f.Sync(), f.Close()); err != nil {
		os.Remove(path)
		return fmt.Errorf("storage: write page file: %w", err)
	}
	return nil
}

// Close implements Pager. It releases the page slabs.
func (m *MemPager) Close() error {
	m.pages = nil
	m.cats = nil
	return nil
}
