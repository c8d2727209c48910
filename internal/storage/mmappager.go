package storage

import (
	"errors"
	"fmt"
	"os"
)

// ErrReadOnlyPager is returned by mutation methods of read-only pagers.
var ErrReadOnlyPager = errors.New("storage: pager is read-only")

// MmapPager is a read-only Pager over a memory-mapped index file. It is
// interchangeable with OpenFilePager for serving: same page addressing,
// same Category bookkeeping (in memory, restored by the open path via
// SetCategory), but ReadPage copies out of the mapping instead of
// issuing a read syscall, and the Frame method lets the buffer pools
// alias mapped pages with no copy at all. Alloc, WritePage and Sync fail
// with ErrReadOnlyPager; serving indexes are bulkloaded and immutable.
//
// On Linux the file is mapped with syscall.Mmap (PROT_READ, MAP_SHARED);
// elsewhere a portable fallback reads the whole file into memory once,
// preserving the zero-copy Frame contract at the cost of resident
// memory. Frames returned by Frame must be treated as immutable — they
// point into the mapping.
type MmapPager struct {
	data  []byte
	pages uint64
	cats  []Category
	unmap func() error
}

// OpenMmapPager maps the index file at path read-only. The file size
// must be a multiple of PageSize, like OpenFilePager.
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

// ReadPage copies page id out of the mapping into dst.
func (p *MmapPager) ReadPage(id PageID, dst []byte) error {
	if err := checkBuf(dst, "read"); err != nil {
		return err
	}
	b, err := p.Frame(id)
	if err != nil {
		return err
	}
	copy(dst[:PageSize], b)
	return nil
}

// Frame returns the mapped bytes of page id without copying. The slice
// aliases the mapping: read-only, valid until Close.
func (p *MmapPager) Frame(id PageID) ([]byte, error) {
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

// Sync is a no-op success: a read-only mapping has nothing to flush.
func (p *MmapPager) Sync() error { return nil }

// Close unmaps the file. Frames handed out earlier become invalid.
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
	_ FramePager     = (*MmapPager)(nil)
)
