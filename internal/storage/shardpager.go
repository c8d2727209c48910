package storage

import (
	"errors"
	"fmt"
)

// Sharded page addressing. A sharded FLAT index keeps one page file per
// spatial shard, and every page id a shard stores carries the shard's
// number, so the ids of all shards form one PageID space:
//
//	bits 47..32: shard number (up to MaxShards)
//	bits 31..0:  page within the shard's own pager
//
// The tag stays within the low 48 bits of the id because core.RecordRef
// packs a PageID into 48 bits (page<<16 | slot); ids above that would be
// silently truncated by the metadata-record encoding. 2^32 pages of
// 4 KiB bound each shard at 16 TiB, far beyond this library's scale.
//
// Shard 0's ids coincide with its pager's local ids (tag 0), which is
// what makes a 1-shard index byte-identical to an unsharded one.
const (
	shardIDShift = 32
	// MaxShards is the number of shards the PageID space can address.
	MaxShards = 1 << 16
	// maxShardLocal is the exclusive bound on per-shard local page ids.
	maxShardLocal  = uint64(1) << shardIDShift
	shardLocalMask = maxShardLocal - 1
)

// ShardPageID tags a shard-local page id into the shared PageID space.
func ShardPageID(shard int, local PageID) PageID {
	return PageID(uint64(shard)<<shardIDShift | uint64(local))
}

// SplitShardPageID is the inverse of ShardPageID.
func SplitShardPageID(id PageID) (shard int, local PageID) {
	return int(uint64(id) >> shardIDShift), PageID(uint64(id) & shardLocalMask)
}

// ErrMultiPagerAlloc is returned by MultiPager.Alloc when more than one
// shard is routed: pages are allocated through the owning shard's view.
var ErrMultiPagerAlloc = errors.New("storage: allocate through a shard's view, not the multi pager")

// MultiPager routes the sharded PageID space over per-shard pagers: id
// bits 47..32 select the sub-pager, the low 32 bits address the page
// within it.
//
// A shard's view (NewShardView) is the router with one routed shard: it
// checks a tagged id's shard and strips the tag. A shard is bulkloaded
// and served through its view, and Alloc works only there; it returns
// tagged ids, so an index built through a view stores them in all of
// its persistent structures (seed root, object-page pointers, metadata
// record refs), and the same page file is served through the shard's
// view again with no translation pass. A router over several shards
// (NewMultiPager) reads any shard's tagged ids.
//
// MultiPager adds no synchronization of its own and its routing table
// never changes; concurrent use follows the wrapped pagers' rules, and
// distinct shards never share mutable state, so per-shard builds may
// proceed in parallel as long as each shard is touched by one goroutine.
type MultiPager struct {
	first int     // shard number subs[0] serves
	subs  []Pager // subs[i] serves shard first+i
}

// NewMultiPager routes over subs; sub i serves shard i. The router reads
// subs in place: the caller must not change it.
func NewMultiPager(subs []Pager) (*MultiPager, error) {
	if len(subs) == 0 {
		return nil, errors.New("storage: multi pager needs at least one sub-pager")
	}
	if len(subs) > MaxShards {
		return nil, fmt.Errorf("storage: %d sub-pagers exceed MaxShards (%d)", len(subs), MaxShards)
	}
	for i, sub := range subs {
		if sub == nil {
			return nil, fmt.Errorf("storage: nil sub-pager for shard %d", i)
		}
	}
	return &MultiPager{subs: subs}, nil
}

// NewShardView routes shard number shard alone, over sub: the window of
// the shared id space one shard is bulkloaded and served through.
func NewShardView(sub Pager, shard int) (*MultiPager, error) {
	if shard < 0 || shard >= MaxShards {
		return nil, fmt.Errorf("storage: shard %d out of range [0,%d)", shard, MaxShards)
	}
	return &MultiPager{first: shard, subs: []Pager{sub}}, nil
}

// route resolves a tagged id to its sub-pager and local id.
func (m *MultiPager) route(id PageID) (Pager, PageID, error) {
	shard, local := SplitShardPageID(id)
	if shard < m.first || shard-m.first >= len(m.subs) {
		return nil, InvalidPage, ErrPageOutOfRange
	}
	return m.subs[shard-m.first], local, nil
}

// Alloc implements Pager when exactly one shard is routed; the returned
// id carries the shard tag. Allocation must target a specific shard, so
// a router over several fails with ErrMultiPagerAlloc.
func (m *MultiPager) Alloc(cat Category) (PageID, error) {
	if len(m.subs) != 1 {
		return InvalidPage, ErrMultiPagerAlloc
	}
	local, err := m.subs[0].Alloc(cat)
	if err != nil {
		return InvalidPage, err
	}
	if uint64(local) >= maxShardLocal {
		return InvalidPage, fmt.Errorf("storage: shard %d exceeds %d pages", m.first, maxShardLocal)
	}
	return ShardPageID(m.first, local), nil
}

// ReadPage implements Pager.
func (m *MultiPager) ReadPage(id PageID) ([]byte, error) {
	sub, local, err := m.route(id)
	if err != nil {
		return nil, err
	}
	return sub.ReadPage(local)
}

// WritePage implements Pager.
func (m *MultiPager) WritePage(id PageID, src []byte) error {
	sub, local, err := m.route(id)
	if err != nil {
		return err
	}
	return sub.WritePage(local, src)
}

// CategoryOf implements Pager.
func (m *MultiPager) CategoryOf(id PageID) Category {
	sub, local, err := m.route(id)
	if err != nil {
		return CatUnknown
	}
	return sub.CategoryOf(local)
}

// SetCategory implements CategorySetter, forwarding to sub-pagers that
// support it (index open paths restore measurement categories with it).
func (m *MultiPager) SetCategory(id PageID, cat Category) {
	sub, local, err := m.route(id)
	if err != nil {
		return
	}
	if cs, ok := sub.(CategorySetter); ok {
		cs.SetCategory(local, cat)
	}
}

// NumPages implements Pager with the total page count across shards.
// Tagged ids do not run 0..NumPages()-1 beyond shard 0: a shard's last
// page is ShardPageID(shard, its own pager's count - 1).
func (m *MultiPager) NumPages() uint64 {
	var n uint64
	for _, sub := range m.subs {
		n += sub.NumPages()
	}
	return n
}

// Close implements Pager. Every sub-pager is closed even if one fails;
// the first error is returned.
func (m *MultiPager) Close() error {
	var first error
	for i, sub := range m.subs {
		if err := sub.Close(); err != nil && first == nil {
			first = fmt.Errorf("storage: close shard %d: %w", m.first+i, err)
		}
	}
	return first
}

var (
	_ Pager          = (*MultiPager)(nil)
	_ CategorySetter = (*MultiPager)(nil)
)
