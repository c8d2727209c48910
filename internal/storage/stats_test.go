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
