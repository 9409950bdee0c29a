package core

import (
	"unsafe"

	"repro/internal/bits"
)

// This file is the module's only use of package unsafe. It is kept to
// three conversions and a size so that it can be audited at a glance.

// DecodeView is Decode for callers whose bytes outlive the result and are
// never written while it is in use — a read-only memory mapping, or a
// buffer read for this one decode. The result may alias data: a v3 or v4
// stream's flags and masks are data's own bytes, and so is the int8 F of
// a v2 or v3 stream, checked once for the index −2^(b−1) Decode also
// rejects, instead of a copy. Wider indices, stored big-endian at offsets
// not aligned to their width or entropy-coded (v4), and v1's F, which is
// not byte-aligned, are unpacked exactly as Decode unpacks them.
//
// Nothing in this package writes F or the masks in place — Negate and
// MulScalar work on a clone — so the kernels only ever read the aliased
// bytes, and the arrays they return own their memory.
func DecodeView(data []byte) (*CompressedArray, error) { return decode(data, true) }

// int8s returns b's bytes as int8s: the same memory, capacity len(b), so
// an append reallocates instead of writing past b.
func int8s(b []byte) []int8 {
	return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

// sizeOf returns the width of T in bytes.
func sizeOf[T bits.Signed]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// bytesOf returns f's memory as bytes: Decode keeps its copy of the
// masks in the tail of F's allocation (serialize.go).
func bytesOf[T bits.Signed](f []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*sizeOf[T]())
}

// wordsOf returns f's memory as uint64s: blockBuffer keeps the marks of
// the plan's sparse inverse in the tail of its float allocation.
func wordsOf(f []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}
