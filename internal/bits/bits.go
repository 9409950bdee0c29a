// Package bits provides the bit-granular I/O used by the compressed-form
// serializers: a bit writer/reader, the negabinary codec used by the
// ZFP-like baseline, and a canonical Huffman codec used by the SZ-like
// baseline.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
)

// Writer accumulates bits most-significant-first into a byte buffer.
// The zero value is ready to use. Pending bits collect in a 64-bit word
// that is flushed eight bytes at a time, so a write costs a shift and an
// OR, not an append per bit.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, in the low nAcc bits
	nAcc uint   // bits currently in acc, 0..63
}

// Grow reserves room for nbits more bits, so that a stream of known size
// (core.Encode knows its own from CompressedSizeBits) is written into one
// allocation.
func (w *Writer) Grow(nbits int) {
	need := (w.Len() + nbits + 7) / 8
	if need > cap(w.buf) {
		w.buf = append(make([]byte, 0, need), w.buf...)
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bits: WriteBits n=%d out of range", n))
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	if free := 64 - w.nAcc; n < free {
		w.acc = w.acc<<n | v
		w.nAcc += n
	} else {
		// The top `free` bits of v complete the word; the rest start
		// the next one. (A 64-bit shift is 0 in Go, which is what the
		// free == 64 and n == free cases need.)
		rest := n - free
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
		w.acc = v & (1<<rest - 1)
		w.nAcc = rest
	}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint8) {
	w.acc = w.acc<<1 | uint64(b&1)
	w.nAcc++
	if w.nAcc == 64 {
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
		w.acc, w.nAcc = 0, 0
	}
}

// WriteBool appends a single bit from a bool.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// Len returns the number of whole bits written so far.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.nAcc) }

// AppendBits appends the first nbits bits of buf (most significant bit of
// buf[0] first). It lets independently produced bit streams — e.g.
// fixed-rate blocks encoded in parallel — be concatenated without byte
// alignment.
func (w *Writer) AppendBits(buf []byte, nbits int) {
	if nbits > len(buf)*8 {
		panic(fmt.Sprintf("bits: AppendBits wants %d bits, buffer has %d", nbits, len(buf)*8))
	}
	// Fast path: the writer is byte-aligned and so is the suffix.
	if w.nAcc%8 == 0 && nbits%8 == 0 {
		w.buf = appendPending(w.buf, w.acc, w.nAcc)
		w.acc, w.nAcc = 0, 0
		w.buf = append(w.buf, buf[:nbits/8]...)
		return
	}
	for ; nbits >= 64; nbits -= 64 {
		w.WriteBits(binary.BigEndian.Uint64(buf), 64)
		buf = buf[8:]
	}
	full := nbits / 8
	for _, b := range buf[:full] {
		w.WriteBits(uint64(b), 8)
	}
	if rem := uint(nbits % 8); rem > 0 {
		w.WriteBits(uint64(buf[full]>>(8-rem)), rem)
	}
}

// appendPending appends the n pending bits in the low end of acc to buf
// as whole bytes, zero-padding the last one at its low end.
func appendPending(buf []byte, acc uint64, n uint) []byte {
	if n == 0 {
		return buf
	}
	acc <<= 64 - n
	for i := uint(0); i < n; i += 8 {
		buf = append(buf, byte(acc>>56))
		acc <<= 8
	}
	return buf
}

// Bytes returns the stream so far, any partial byte zero-padded at the
// low end. The result shares the writer's buffer rather than copying it:
// it is valid until the next write. The writer may continue to be used;
// subsequent calls reflect additional writes.
func (w *Writer) Bytes() []byte {
	return appendPending(w.buf, w.acc, w.nAcc)
}

// Reader consumes bits most-significant-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // bit position
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ErrOutOfBits is returned when a read runs past the end of the buffer.
var ErrOutOfBits = errors.New("bits: read past end of stream")

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (uint8, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrOutOfBits
	}
	b := r.buf[r.pos/8] >> (7 - uint(r.pos%8)) & 1
	r.pos++
	return b, nil
}

// ReadBool consumes one bit as a bool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b == 1, err
}

// ReadBits consumes n bits (n ≤ 64), most significant first. A read that
// runs past the end fails with ErrOutOfBits and leaves nothing to read.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bits: ReadBits n=%d out of range", n))
	}
	if int(n) > r.Remaining() {
		r.pos = len(r.buf) * 8
		return 0, ErrOutOfBits
	}
	v := r.peek(n)
	r.pos += int(n)
	return v, nil
}

// peek returns the next n bits (n ≤ 64, n ≤ Remaining) without consuming
// them: one big-endian 64-bit load at the current byte, a 9th byte when
// the span crosses the word, and a byte-wise gather inside the last eight
// bytes. The buffer may be a bounded slice of a memory-mapped file, so
// no path reads a byte beyond it.
func (r *Reader) peek(n uint) uint64 {
	if n == 0 {
		return 0
	}
	i, off := r.pos>>3, uint(r.pos&7)
	var word uint64
	if i+8 <= len(r.buf) {
		word = binary.BigEndian.Uint64(r.buf[i:]) << off
		if off+n > 64 {
			word |= uint64(r.buf[i+8]) >> (8 - off)
		}
	} else {
		// Fewer than 8 bytes left, so off+n ≤ 56 and they hold it all.
		for j, b := range r.buf[i:] {
			word |= uint64(b) << (56 - 8*uint(j))
		}
		word <<= off
	}
	return word >> (64 - n)
}

// Signed is the set of integer types UnpackSigned fills.
type Signed interface {
	int8 | int16 | int32 | int64
}

// UnpackSigned consumes len(dst) consecutive n-bit two's-complement
// integers into dst, sign-extended; n must be in [1, 64] and no wider
// than T. It fetches 64 bits at a time and splits them, and is what
// core.Decode reads the index array F with. sawMin reports whether any
// value was −2^(n−1), the one n-bit pattern a quantizer with symmetric
// bins never emits, so a caller can reject it without a second pass over
// dst. On ErrOutOfBits dst is partly filled and nothing is left to read.
func UnpackSigned[T Signed](r *Reader, dst []T, n uint) (sawMin bool, err error) {
	if n == 0 || n > 64 || T(1)<<(n-1) == 0 {
		panic(fmt.Sprintf("bits: UnpackSigned n=%d out of range for %T", n, T(0)))
	}
	if len(dst) > r.Remaining()/int(n) {
		r.pos = len(r.buf) * 8
		return false, ErrOutOfBits
	}
	per := int(64 / n)
	span := per * int(n)
	// While nine bytes remain, one load (plus the byte the span may spill
	// into) yields 64/n values; the last few go through peek, whose tail
	// path stays inside the buffer.
	for ; len(dst) >= per && r.pos>>3+9 <= len(r.buf); dst = dst[per:] {
		i, off := r.pos>>3, uint(r.pos&7)
		word := binary.BigEndian.Uint64(r.buf[i:])<<off | uint64(r.buf[i+8])>>(8-off)
		sawMin = split(dst[:per], word, n) || sawMin
		r.pos += span
	}
	for j := range dst {
		sawMin = split(dst[j:j+1], r.peek(n)<<(64-n), n) || sawMin
		r.pos += int(n)
	}
	return sawMin, nil
}

// split fills dst with the leading n-bit fields of word, sign-extended,
// and reports whether any was 10…0. Rotating left by n brings the next
// field into the low n bits; (x ^ sign) − sign then sign-extends it
// without a variable shift.
func split[T Signed](dst []T, word uint64, n uint) (sawMin bool) {
	mask, sign := ^uint64(0)>>(64-n), uint64(1)<<(n-1)
	for j := range dst {
		word = mathbits.RotateLeft64(word, int(n))
		x := word & mask
		if x == sign {
			sawMin = true
		}
		dst[j] = T((x ^ sign) - sign)
	}
	return sawMin
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }
