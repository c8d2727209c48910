// Fixtures for the pageidpack and codecbounds analyzers, negative
// case: the storage package itself owns the PageID and page-buffer
// layouts and may use raw arithmetic and raw byte access.
package storage

type PageID uint64

func shardOf(id PageID) uint16 {
	return uint16(uint64(id) >> 32)
}

func pack(shard uint16, local uint32) PageID {
	return PageID(uint64(shard)<<32 | uint64(local))
}

type pool struct{}

func (pool) ReadPage(id PageID) ([]byte, error) { return nil, nil }

// decodeKind is the codec itself: raw page-buffer access is its job.
func decodeKind(p pool, id PageID) byte {
	buf, _ := p.ReadPage(id)
	return buf[0]
}
