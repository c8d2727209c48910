package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestShardPageIDRoundTrip(t *testing.T) {
	cases := []struct {
		shard int
		local PageID
	}{
		{0, 0}, {0, 17}, {1, 0}, {7, 123456}, {MaxShards - 1, PageID(maxShardLocal - 1)},
	}
	for _, c := range cases {
		id := ShardPageID(c.shard, c.local)
		shard, local := SplitShardPageID(id)
		if shard != c.shard || local != c.local {
			t.Errorf("round trip (%d,%d) -> %d -> (%d,%d)", c.shard, c.local, id, shard, local)
		}
	}
	// Shard 0 ids must be the identity: that is what makes a 1-shard
	// index byte-identical to an unsharded one.
	if ShardPageID(0, 42) != 42 {
		t.Error("shard 0 must not tag ids")
	}
	// Tagged ids must fit the 48 bits core.RecordRef reserves for pages.
	if max := ShardPageID(MaxShards-1, PageID(maxShardLocal-1)); uint64(max) >= 1<<48 {
		t.Errorf("id %d overflows the 48-bit record-ref page field", max)
	}
}

func TestShardViewTranslation(t *testing.T) {
	sub := NewMemPager()
	v, err := NewShardView(sub, 3)
	if err != nil {
		t.Fatal(err)
	}
	id, err := v.Alloc(CatObject)
	if err != nil {
		t.Fatal(err)
	}
	if shard, local := SplitShardPageID(id); shard != 3 || local != 0 {
		t.Fatalf("alloc returned (%d,%d), want (3,0)", shard, local)
	}
	src := make([]byte, PageSize)
	copy(src, []byte("shard three"))
	if err := v.WritePage(id, src); err != nil {
		t.Fatal(err)
	}
	dst, err := v.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("read back mismatch through view")
	}
	if got := v.CategoryOf(id); got != CatObject {
		t.Errorf("CategoryOf = %v", got)
	}
	// The underlying pager sees local ids.
	if dst, err = sub.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("sub pager content mismatch")
	}
	// Ids of other shards are out of range for this view.
	if _, err := v.ReadPage(ShardPageID(2, 0)); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("foreign shard read: err = %v, want ErrPageOutOfRange", err)
	}
	if _, err := NewShardView(sub, MaxShards); err == nil {
		t.Error("shard beyond MaxShards should be rejected")
	}
	// A view is a build-time window: it has no cache owner to swap under.
	if _, err := v.Swap(3, NewMemPager()); err == nil {
		t.Error("Swap on a shard view should be refused")
	}

	// The router over one shard is the same mechanism: it allocates
	// (shard 0's tag is the identity) and, owning the whole id space,
	// swaps.
	one, err := NewMultiPager([]Pager{sub})
	if err != nil {
		t.Fatal(err)
	}
	if id, err := one.Alloc(CatMetadata); err != nil || id != 1 {
		t.Errorf("one-shard router Alloc = (%d, %v), want local id 1", id, err)
	}
	if _, err := one.ReadPage(ShardPageID(1, 0)); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("one-shard router, foreign shard read: err = %v, want ErrPageOutOfRange", err)
	}
	if old, err := one.Swap(0, NewMemPager()); err != nil || old != Pager(sub) {
		t.Errorf("one-shard router Swap = (%v, %v), want the original sub-pager", old, err)
	}
}

func TestMultiPagerRouting(t *testing.T) {
	subs := []Pager{NewMemPager(), NewMemPager(), NewMemPager()}
	// Populate each shard through its view with a distinctive page.
	for s, sub := range subs {
		v, err := NewShardView(sub, s)
		if err != nil {
			t.Fatal(err)
		}
		id, err := v.Alloc(Category(s % int(NumCategories)))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		buf[0] = byte('A' + s)
		if err := v.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMultiPager(subs)
	if err != nil {
		t.Fatal(err)
	}
	for s := range subs {
		dst, err := m.ReadPage(ShardPageID(s, 0))
		if err != nil {
			t.Fatal(err)
		}
		if dst[0] != byte('A'+s) {
			t.Errorf("shard %d routed to wrong pager (got %q)", s, dst[0])
		}
		if got := m.CategoryOf(ShardPageID(s, 0)); got != Category(s%int(NumCategories)) {
			t.Errorf("shard %d category = %v", s, got)
		}
	}
	if m.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", m.NumPages())
	}
	if _, err := m.Alloc(CatObject); !errors.Is(err, ErrMultiPagerAlloc) {
		t.Errorf("Alloc err = %v, want ErrMultiPagerAlloc", err)
	}
	if _, err := m.ReadPage(ShardPageID(9, 0)); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("out-of-range shard read err = %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiPagerSwapAndShardInvalidation exercises the two storage
// primitives of the per-shard rebuild path: MultiPager.Swap splices a
// rebuilt shard's new pager in without touching its siblings, and
// ConcurrentPool.DropFramesIf invalidates exactly the swapped shard's
// cached frames, leaving the other shards' cache warm.
func TestMultiPagerSwapAndShardInvalidation(t *testing.T) {
	subs := []Pager{NewMemPager(), NewMemPager()}
	ids := make([]PageID, len(subs))
	for s, sub := range subs {
		v, err := NewShardView(sub, s)
		if err != nil {
			t.Fatal(err)
		}
		id, err := v.Alloc(CatObject)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		buf[0] = byte('A' + s)
		if err := v.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[s] = id
	}
	m, err := NewMultiPager(subs)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewConcurrentPool(m, 0)
	for _, id := range ids {
		if _, err := pool.ReadInto(id, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Rebuild shard 1: new pager with new content, swapped in.
	repl := NewMemPager()
	rv, err := NewShardView(repl, 1)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := rv.Alloc(CatObject)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 'Z'
	if err := rv.WritePage(rid, buf); err != nil {
		t.Fatal(err)
	}
	orig := subs[1]
	old, err := m.Swap(1, repl)
	if err != nil {
		t.Fatal(err)
	}
	if old != orig {
		t.Fatal("Swap returned the wrong previous pager")
	}
	pool.DropFramesIf(func(id PageID) bool {
		shard, _ := SplitShardPageID(id)
		return shard == 1
	})

	// Shard 1's frame was dropped and now reads the new pager's content
	// (one miss); shard 0's frame survived (no miss).
	var tally Stats
	page, err := pool.ReadInto(ids[1], &tally)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 'Z' {
		t.Errorf("swapped shard serves old content %q", page[0])
	}
	if got := tally.TotalReads(); got != 1 {
		t.Errorf("swapped shard's frame survived invalidation: %d reads", got)
	}
	page, err = pool.ReadInto(ids[0], &tally)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 'A' {
		t.Errorf("clean shard content disturbed: %q", page[0])
	}
	if got := tally.TotalReads(); got != 1 {
		t.Error("clean shard's frame was dropped")
	}

	if _, err := m.Swap(5, repl); err == nil {
		t.Error("Swap out of range should fail")
	}
	if _, err := m.Swap(0, nil); err == nil {
		t.Error("Swap with nil pager should fail")
	}
}

// TestMultiPagerUnderConcurrentPool certifies the serving configuration
// of a sharded index: one ConcurrentPool over a MultiPager,
// with per-query local stats attributing reads to the right categories.
func TestMultiPagerUnderConcurrentPool(t *testing.T) {
	subs := []Pager{NewMemPager(), NewMemPager()}
	var ids []PageID
	for s, sub := range subs {
		v, err := NewShardView(sub, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			id, err := v.Alloc(CatObject)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, PageSize)
			buf[0], buf[1] = byte(s), byte(i)
			if err := v.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	m, err := NewMultiPager(subs)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewConcurrentPool(m, 0)
	var local Stats
	for _, id := range ids {
		shard, n := SplitShardPageID(id)
		page, err := pool.ReadInto(id, &local)
		if err != nil {
			t.Fatal(err)
		}
		if page[0] != byte(shard) || page[1] != byte(n) {
			t.Fatalf("page %d content mismatch", id)
		}
	}
	if local.Reads[CatObject] != uint64(len(ids)) {
		t.Errorf("local object reads = %d, want %d", local.Reads[CatObject], len(ids))
	}
	if pool.Len() != len(ids) {
		t.Errorf("pool holds %d frames, want %d", pool.Len(), len(ids))
	}
}
