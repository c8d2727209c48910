//go:build linux

package storage

import (
	"os"
	"syscall"
)

// mapFile maps size bytes of f read-only. An empty file maps to no
// bytes (mmap of length 0 is EINVAL).
func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	// Index pages are accessed by PageID, not sequentially: the kernel's
	// default readahead drags in neighbouring pages a crawl will never
	// touch. Advisory only, so a refusal (old kernels, odd filesystems)
	// costs nothing.
	_ = syscall.Madvise(data, syscall.MADV_RANDOM)
	return data, func() error { return syscall.Munmap(data) }, nil
}
