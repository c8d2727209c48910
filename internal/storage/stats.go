package storage

// Stats is a caller-owned tally of page reads per page category: the
// one page-read accounting in this repository. A query passes its own
// Stats down to Pool.ReadInto the first time it reads each page, so it
// counts every distinct page it read once, whatever ran before it or
// runs beside it; nothing below keeps a shared total. One page read corresponds to PageSize bytes retrieved from
// "disk" — exactly the unit the paper reports in Figures 2, 12, 14–16,
// 18 and 19.
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
