package storage

// MemPager is an in-memory Pager. It is the default substrate for tests
// and for the benchmark harness: the paper's metric is page reads, which
// the pool counts identically regardless of whether the bytes come
// from memory or a file, and an in-memory backing keeps the density sweeps
// fast and deterministic.
type MemPager struct {
	pages [][]byte
	cats  []Category
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

// Alloc implements Pager.
func (m *MemPager) Alloc(cat Category) (PageID, error) {
	m.pages = append(m.pages, make([]byte, PageSize))
	m.cats = append(m.cats, cat)
	return PageID(len(m.pages) - 1), nil
}

// ReadPage implements Pager.
func (m *MemPager) ReadPage(id PageID, dst []byte) error {
	if err := checkBuf(dst, "read"); err != nil {
		return err
	}
	if uint64(id) >= uint64(len(m.pages)) {
		return ErrPageOutOfRange
	}
	copy(dst[:PageSize], m.pages[id])
	return nil
}

// WritePage implements Pager.
func (m *MemPager) WritePage(id PageID, src []byte) error {
	if err := checkBuf(src, "write"); err != nil {
		return err
	}
	if uint64(id) >= uint64(len(m.pages)) {
		return ErrPageOutOfRange
	}
	copy(m.pages[id], src[:PageSize])
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

// Sync implements Pager. It is a no-op for memory.
func (m *MemPager) Sync() error { return nil }

// Close implements Pager. It releases the page slabs.
func (m *MemPager) Close() error {
	m.pages = nil
	m.cats = nil
	return nil
}
