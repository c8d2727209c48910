//go:build !linux

package storage

import (
	"io"
	"os"
)

// mapFile is the portable fallback: read the whole file into memory
// once. Frame slices alias this buffer, preserving the zero-copy
// contract of the Linux mapping at the cost of resident memory.
func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
