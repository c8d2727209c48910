package storage

import (
	"errors"
	"fmt"
	"os"
)

// ErrReadOnlyPager is returned by mutation methods of read-only pagers.
var ErrReadOnlyPager = errors.New("storage: pager is read-only")

// ErrPagerClosed is returned by MmapPager.ReadPage after Close.
var ErrPagerClosed = errors.New("storage: pager is closed")

// MmapPager is a read-only Pager over a memory-mapped index file, and
// the one pager a committed shard file is served through. Page
// categories are kept in memory, restored by the open path via
// SetCategory. ReadPage returns a slice aliasing the mapping, copying
// nothing; it is valid until Close. Alloc and WritePage fail with
// ErrReadOnlyPager; serving indexes are bulkloaded and immutable.
//
// On Linux the file is mapped with syscall.Mmap (PROT_READ, MAP_SHARED);
// elsewhere a portable fallback reads the whole file into memory once,
// preserving the zero-copy contract at the cost of resident memory.
type MmapPager struct {
	data  []byte
	pages uint64
	cats  []Category
	unmap func() error
}

// OpenMmapPager maps the index file at path read-only. The file size
// must be a multiple of PageSize.
func OpenMmapPager(path string) (*MmapPager, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size%PageSize != 0 {
		return nil, fmt.Errorf("storage: mmap %s: size %d not a multiple of %d", path, size, PageSize)
	}
	data, unmap, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("storage: mmap %s: %w", path, err)
	}
	pages := uint64(size) / PageSize
	return &MmapPager{
		data:  data,
		pages: pages,
		cats:  make([]Category, pages),
		unmap: unmap,
	}, nil
}

// Alloc fails: the pager is read-only.
func (p *MmapPager) Alloc(Category) (PageID, error) { return InvalidPage, ErrReadOnlyPager }

// WritePage fails: the pager is read-only.
func (p *MmapPager) WritePage(PageID, []byte) error { return ErrReadOnlyPager }

// ReadPage returns the mapped bytes of page id without copying. The
// slice aliases the mapping: read-only, valid until Close. A closed
// pager returns ErrPagerClosed.
func (p *MmapPager) ReadPage(id PageID) ([]byte, error) {
	if p.unmap == nil {
		return nil, ErrPagerClosed
	}
	if uint64(id) >= p.pages {
		return nil, fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, p.pages)
	}
	off := uint64(id) * PageSize
	return p.data[off : off+PageSize : off+PageSize], nil
}

// CategoryOf returns the in-memory category tag of page id.
func (p *MmapPager) CategoryOf(id PageID) Category {
	if uint64(id) >= uint64(len(p.cats)) {
		return CatUnknown
	}
	return p.cats[id]
}

// SetCategory tags page id; open paths use it to restore measurement
// categories (implements CategorySetter).
func (p *MmapPager) SetCategory(id PageID, cat Category) {
	if uint64(id) < uint64(len(p.cats)) {
		p.cats[id] = cat
	}
}

// NumPages returns the number of mapped pages.
func (p *MmapPager) NumPages() uint64 { return p.pages }

// Close unmaps the file. Pages handed out earlier become invalid.
func (p *MmapPager) Close() error {
	if p.unmap == nil {
		return nil
	}
	u := p.unmap
	p.unmap, p.data = nil, nil
	return u()
}

var (
	_ Pager          = (*MmapPager)(nil)
	_ CategorySetter = (*MmapPager)(nil)
)
