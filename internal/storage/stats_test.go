package storage

import "testing"

func TestStatsArithmetic(t *testing.T) {
	var a, b Stats
	a.Reads[CatObject] = 10
	a.Reads[CatMetadata] = 4
	a.Writes[CatObject] = 2
	b.Reads[CatObject] = 3
	d := a.Sub(b)
	if d.Reads[CatObject] != 7 || d.Reads[CatMetadata] != 4 {
		t.Errorf("Sub wrong: %+v", d)
	}
	var c Stats
	c.Add(a)
	c.Add(b)
	if c.Reads[CatObject] != 13 {
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
	a.Reset()
	if a.TotalReads() != 0 {
		t.Error("Reset failed")
	}
}

func TestStatsLeafNonLeafSplit(t *testing.T) {
	var s Stats
	s.Reads[CatRTreeLeaf] = 5
	s.Reads[CatObject] = 7
	s.Reads[CatRTreeInternal] = 2
	s.Reads[CatSeedInternal] = 1
	s.Reads[CatMetadata] = 3
	if s.LeafReads() != 12 {
		t.Errorf("LeafReads = %d", s.LeafReads())
	}
}

func TestStatsString(t *testing.T) {
	var s Stats
	s.Reads[CatObject] = 2
	got := s.String()
	if got != "reads{object:2} total=2" {
		t.Errorf("String = %q", got)
	}
}
