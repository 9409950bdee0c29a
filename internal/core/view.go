package core

import (
	"unsafe"

	"repro/internal/bits"
)

// This file is the module's only use of package unsafe. It is kept to
// two conversions and a size so that it can be audited at a glance.

// DecodeView is Decode for callers whose bytes outlive the result and are
// never written while it is in use — a read-only memory mapping, or a
// buffer read for this one decode. The result may alias data: the int8 F
// of a v2 stream is data's own bytes, checked once for the index
// −2^(b−1) Decode also rejects, instead of a copy. Every other stream
// (v1, or v2 with wider indices, stored big-endian at offsets not aligned
// to their width) decodes exactly as Decode does.
//
// Nothing in this package writes F in place — Negate and MulScalar work
// on a clone — so the kernels only ever read the aliased bytes, and the
// arrays they return own their memory.
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

// bytesOf returns f's memory as bytes, for the kernels that read F a
// word at a time (nonzero.go). They only read it: f may be a read-only
// mapping.
func bytesOf[T bits.Signed](f []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*sizeOf[T]())
}
