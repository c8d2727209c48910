package storage

import "testing"

func TestStatsArithmetic(t *testing.T) {
	var a, b Stats
	a.Reads[CatObject] = 10
	a.Reads[CatMetadata] = 4
	b.Reads[CatObject] = 3
	var c Stats
	c.Add(a)
	c.Add(b)
	if c.Reads[CatObject] != 13 || c.Reads[CatMetadata] != 4 {
		t.Errorf("Add wrong: %+v", c)
	}
	if a.TotalReads() != 14 {
		t.Errorf("TotalReads = %d", a.TotalReads())
	}
	if a.BytesRead() != 14*PageSize {
		t.Errorf("BytesRead = %d", a.BytesRead())
	}
	if a.BytesReadBy(CatMetadata) != 4*PageSize {
		t.Errorf("BytesReadBy = %d", a.BytesReadBy(CatMetadata))
	}
}

// TestStatsString pins the printed split every CLI and example line
// reads: a FLAT tally names its three categories, zeros included, an
// R-tree tally its two, and a tally holding both kinds all five.
func TestStatsString(t *testing.T) {
	type reads = [NumCategories]uint64
	for _, tc := range []struct {
		s    Stats
		want string
	}{
		{Stats{}, "0 seed + 0 metadata + 0 object"},
		{Stats{reads{CatSeedInternal: 1, CatMetadata: 2, CatObject: 33}}, "1 seed + 2 metadata + 33 object"},
		{Stats{reads{CatObject: 4}}, "0 seed + 0 metadata + 4 object"},
		{Stats{reads{CatRTreeInternal: 2, CatRTreeLeaf: 5}}, "2 internal + 5 leaf"},
		{Stats{reads{CatRTreeLeaf: 1, CatObject: 3}}, "0 internal + 1 leaf + 0 seed + 0 metadata + 3 object"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%v: String() = %q, want %q", tc.s.Reads, got, tc.want)
		}
	}
}
