//go:build linux || darwin

package core

import (
	"syscall"
	"testing"
)

// readOnlyCopy returns a copy of b in read-only memory whose end is the
// start of an inaccessible page, so that a write into it, or a read past
// its end, faults. The mapping is released when the test ends.
func readOnlyCopy(tb testing.TB, b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	page := syscall.Getpagesize()
	size := (len(b) + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { syscall.Munmap(mem) })
	view := mem[size-len(b) : size : size]
	copy(view, b)
	if err := syscall.Mprotect(mem[:size], syscall.PROT_READ); err != nil {
		tb.Fatal(err)
	}
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		tb.Fatal(err)
	}
	return view
}
