package storage

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Stats accumulates page-read and page-write counts per page category.
// One page read corresponds to PageSize bytes retrieved from "disk" —
// exactly the unit the paper reports in Figures 2, 12, 14–16, 18 and 19.
type Stats struct {
	Reads  [NumCategories]uint64
	Writes [NumCategories]uint64
}

// TotalReads returns the number of page reads across all categories.
func (s Stats) TotalReads() uint64 {
	var t uint64
	for _, v := range s.Reads {
		t += v
	}
	return t
}

// BytesRead returns the total bytes retrieved from disk.
func (s Stats) BytesRead() uint64 { return s.TotalReads() * PageSize }

// BytesReadBy returns the bytes retrieved from disk for one category.
func (s Stats) BytesReadBy(cat Category) uint64 { return s.Reads[cat] * PageSize }

// LeafReads returns reads attributed to pages holding payload data
// (R-tree leaves and FLAT object pages).
func (s Stats) LeafReads() uint64 {
	return s.Reads[CatRTreeLeaf] + s.Reads[CatObject]
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	for i := range s.Reads {
		s.Reads[i] += o.Reads[i]
		s.Writes[i] += o.Writes[i]
	}
}

// Sub returns s - o, component-wise. It is used to compute per-query
// deltas from cumulative counters.
func (s Stats) Sub(o Stats) Stats {
	var r Stats
	for i := range s.Reads {
		r.Reads[i] = s.Reads[i] - o.Reads[i]
		r.Writes[i] = s.Writes[i] - o.Writes[i]
	}
	return r
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// AtomicStats is the concurrency-safe counterpart of Stats: per-category
// read/write counters that many goroutines may bump at once.
// ConcurrentPool uses it for its global accounting; per-query deltas are
// not derived from it (they would race) but collected locally via
// Pool.ReadInto.
type AtomicStats struct {
	reads  [NumCategories]atomic.Uint64
	writes [NumCategories]atomic.Uint64
}

// AddRead records one page read of the given category.
func (a *AtomicStats) AddRead(cat Category) { a.reads[cat].Add(1) }

// AddWrite records one page write of the given category.
func (a *AtomicStats) AddWrite(cat Category) { a.writes[cat].Add(1) }

// Snapshot copies the counters into a plain Stats. Each counter is read
// atomically; a snapshot taken while updates are in flight may straddle
// them, which is inherent to any running total.
func (a *AtomicStats) Snapshot() Stats {
	var s Stats
	for i := range s.Reads {
		s.Reads[i] = a.reads[i].Load()
		s.Writes[i] = a.writes[i].Load()
	}
	return s
}

// Reset zeroes all counters.
func (a *AtomicStats) Reset() {
	for i := range a.reads {
		a.reads[i].Store(0)
		a.writes[i].Store(0)
	}
}

// String renders the non-zero read counters compactly, e.g.
// "reads{object:12 metadata:3} total=15".
func (s Stats) String() string {
	var b strings.Builder
	b.WriteString("reads{")
	first := true
	for c := Category(0); c < NumCategories; c++ {
		if s.Reads[c] == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", c, s.Reads[c])
		first = false
	}
	fmt.Fprintf(&b, "} total=%d", s.TotalReads())
	return b.String()
}
