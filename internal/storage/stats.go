package storage

import "fmt"

// Stats is a caller-owned tally of page reads per page category: the
// one page-read accounting in this repository. A query passes its own
// Stats down to Pool.ReadInto the first time it reads each page, so it
// counts every distinct page it read once, whatever ran before it or
// runs beside it; nothing below keeps a shared total. One page read
// corresponds to PageSize bytes retrieved from "disk" — exactly the
// unit the paper reports in Figures 2, 12, 14–16, 18 and 19.
type Stats struct {
	Reads [NumCategories]uint64
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

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	for i := range s.Reads {
		s.Reads[i] += o.Reads[i]
	}
}

// categoryNames are the words String prints for each category.
var categoryNames = [NumCategories]string{"unknown", "internal", "leaf", "seed", "metadata", "object"}

// String names the tally's reads by category: "1 seed + 2 metadata +
// 33 object" for a FLAT tally, zeros included, "2 internal + 5 leaf"
// for an R-tree's, and all five for a tally holding both.
func (s Stats) String() string {
	first, last := CatSeedInternal, CatObject
	if s.Reads[CatRTreeInternal]+s.Reads[CatRTreeLeaf] > 0 {
		first = CatRTreeInternal
		if s.Reads[CatSeedInternal]+s.Reads[CatMetadata]+s.Reads[CatObject] == 0 {
			last = CatRTreeLeaf
		}
	}
	sep, out := "", ""
	for c := first; c <= last; c++ {
		out += fmt.Sprintf("%s%d %s", sep, s.Reads[c], categoryNames[c])
		sep = " + "
	}
	return out
}
