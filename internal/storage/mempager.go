package storage

// MemPager is an in-memory Pager. It is the default substrate for tests
// and for the benchmark harness: the paper's metric is page reads, which
// the pool counts identically regardless of whether the bytes come
// from memory or a file, and an in-memory backing keeps the density sweeps
// fast and deterministic.
type MemPager struct {
	pages [][]byte
	cats  []Category
	// used is the number of live pages; pages[used:] are slabs retained
	// by Truncate for reuse. Every bounds check is against used, so a
	// truncated-away page is out of range even though its slab lives on.
	used int
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

// Alloc implements Pager. It reuses a slab retained by Truncate when one
// is available, so epoch-cycled pagers (the staged-delta trees) stop
// re-allocating page memory on every stage→rebuild→stage cycle.
func (m *MemPager) Alloc(cat Category) (PageID, error) {
	if m.used < len(m.pages) {
		id := PageID(m.used)
		clear(m.pages[m.used])
		m.cats[m.used] = cat
		m.used++
		return id, nil
	}
	m.pages = append(m.pages, make([]byte, PageSize))
	m.cats = append(m.cats, cat)
	m.used = len(m.pages)
	return PageID(m.used - 1), nil
}

// ReadPage implements Pager.
func (m *MemPager) ReadPage(id PageID, dst []byte) error {
	if err := checkBuf(dst, "read"); err != nil {
		return err
	}
	if uint64(id) >= uint64(m.used) {
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
	if uint64(id) >= uint64(m.used) {
		return ErrPageOutOfRange
	}
	copy(m.pages[id], src[:PageSize])
	return nil
}

// CategoryOf implements Pager.
func (m *MemPager) CategoryOf(id PageID) Category {
	if uint64(id) >= uint64(m.used) {
		return CatUnknown
	}
	return m.cats[id]
}

// NumPages implements Pager.
func (m *MemPager) NumPages() uint64 { return uint64(m.used) }

// Truncate discards every page while retaining their slabs: subsequent
// Allocs reuse the memory (zeroed) instead of growing the heap. Callers
// must ensure no live reader still holds an ID into the old contents.
func (m *MemPager) Truncate() {
	m.used = 0
}

// Retained reports the number of page slabs the pager holds, live or
// kept for reuse after Truncate. Tests use it to prove slab recycling.
func (m *MemPager) Retained() int { return len(m.pages) }

// Sync implements Pager. It is a no-op for memory.
func (m *MemPager) Sync() error { return nil }

// Close implements Pager. It releases the page slabs.
func (m *MemPager) Close() error {
	m.pages = nil
	m.cats = nil
	m.used = 0
	return nil
}
