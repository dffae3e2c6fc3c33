//go:build unix && !aix

package interp

import (
	"math"
	"syscall"
)

// mapAnon reserves n bytes of private anonymous address space without
// committing swap for it; pages are zero-filled on first touch. Returns
// nil if the kernel refuses.
func mapAnon(n uint64) []byte {
	if n == 0 || n > math.MaxInt {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	return b
}

func unmapAnon(b []byte) { syscall.Munmap(b) }
