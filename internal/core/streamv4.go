package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"

	"repro/internal/bits"
)

// Stream v4 (0xBA) is v3 with its index runs entropy-coded, for index
// widths of 16 bits and more. Everything through the pad after the masks
// is v3's, byte for byte; then come
//
//   - the code: 8 bits holding n, then the code lengths of symbols 0 … n−1,
//     4 bits each (0: the symbol has no code; symbol n−1 has one);
//   - every index of v3's runs, in v3's order, as its symbol's code, then
//     the symbol's extra bits;
//   - zero bits to the next byte, where the stream ends.
//
// An index v of an i-bit type lies in [−r, r], r = 2^(i−1) − 1. Its symbol
// is 0 for v = 0, 1 for +r and 2 for −r — every block holds its N_k as
// ±r, so they get symbols of their own — and for any other v, with c the
// bit length of |v|, 2c+1 when v > 0 and 2c+2 when v < 0; its c−1 extra
// bits are |v| without its leading one. An i-bit type has 2i+1 symbols.
//
// The code is the canonical Huffman code of the frame's symbol counts,
// its lengths capped at v4MaxLen: codes of one length are consecutive
// integers in symbol order, and each length's first code follows the
// last of the length before, shifted up a bit. Decode accepts a complete
// code only, so a frame of one symbol gives another the second one-bit
// code. Decoding is one lookup a symbol in a table of 2^v4MaxLen entries
// on the stack, which for most symbols holds the index itself.
//
// Encode writes v4 when it is strictly shorter than v3, and never for
// int8 indices: their v3 runs are the bytes DecodeView hands the kernels
// in place. A v4 stream decodes to the array its v3 stream decodes to.

const (
	magicV4   = 0xBA
	v4MaxLen  = 9        // the longest code, in bits
	v4Symbols = 2*64 + 1 // symbols of the widest type, int64
)

// streamChoice tells encodeWith which version to write.
type streamChoice int

const (
	pickSmaller streamChoice = iota // v4 where strictly shorter than v3
	forceV3
	forceV4
)

// symbolOf returns index v's symbol, its extra bits and their count; r is
// the index type's radius.
func symbolOf[T bits.Signed](v, r T) (sym int, extra uint64, x uint) {
	// Without a branch on the sign, which is a coin toss on noisy data.
	sg := int64(v) >> 63
	m, neg := uint64((int64(v)^sg)-sg), int(sg&1)
	if v == r || v == -r {
		return 1 + neg, 0, 0
	}
	c := mathbits.Len64(m)
	sym, x = 2*c+1+neg, uint(c-1)
	if c == 0 {
		sym, x = 0, 0
	}
	return sym, m &^ (1 << x), x
}

// extraBits returns the number of extra bits symbol s carries.
func extraBits(s int) int {
	if s < 3 {
		return 0
	}
	return (s-1)/2 - 1
}

// v4Code is a canonical Huffman code over the v4 symbols.
type v4Code struct {
	n     int // symbols 0 … n−1 have a stored length
	lens  [v4Symbols]uint8
	codes [v4Symbols]uint16
}

// build makes c the length-capped Huffman code of the symbol counts h,
// of which at least one is positive, and returns the bits the code and
// the coded runs take.
func (c *v4Code) build(h *[v4Symbols]int) int {
	*c = v4Code{}
	// The used symbols by ascending count, ties by symbol: the order
	// fixes the code, so Encode is a function of the array.
	var syms [v4Symbols]uint8
	k := 0
	for s, f := range h {
		if f == 0 {
			continue
		}
		j := k
		for ; j > 0 && h[syms[j-1]] > f; j-- {
			syms[j] = syms[j-1]
		}
		syms[j] = uint8(s)
		k++
		c.n = s + 1
	}
	var count [v4MaxLen + 1]int // symbols per code length
	if k == 1 {
		// A code of one symbol is not complete: a symbol that does not
		// occur takes the other one-bit code.
		other := 0
		if syms[0] == 0 {
			other = 1
		}
		c.lens[other] = 1
		c.n = max(c.n, other+1)
		count[1] = 1
	} else {
		var w [v4Symbols]int
		for i, s := range syms[:k] {
			w[i] = h[s]
		}
		minRedundancy(w[:k])
		for _, l := range w[:k] {
			count[min(l, v4MaxLen)]++
		}
		capLengths(&count)
	}
	// The most frequent symbols take the shortest codes.
	i := k - 1
	for l := 1; l <= v4MaxLen; l++ {
		for ; count[l] > 0; count[l]-- {
			c.lens[syms[i]] = uint8(l)
			i--
		}
	}
	c.assign()
	total := 8 + 4*c.n
	for s, f := range h[:c.n] {
		total += f * (int(c.lens[s]) + extraBits(s))
	}
	return total
}

// minRedundancy replaces the weights a, ascending and at least two, by
// the code lengths of a Huffman code for them, in place (Moffat and
// Katajainen, "In-Place Calculation of Minimum-Redundancy Codes", 1995).
// The lengths come out non-increasing.
func minRedundancy(a []int) {
	n := len(a)
	// Pair the two lightest of the leaves and the trees built so far;
	// a tree's slot holds its weight, then its parent's slot.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = next
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] < a[leaf] {
			a[next] += a[root]
			a[root] = next
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// The trees' depths, from the root down.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// The leaves' depths: each level's free slots not taken by trees.
	avail, used, depth := 1, 0, 0
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, depth, used = 2*used, depth+1, 0
	}
}

// capLengths turns the per-length symbol counts of a Huffman code whose
// longer codes were counted at v4MaxLen back into a complete code: while
// the Kraft sum is over 1, a v4MaxLen leaf goes and the deepest shorter
// leaf splits in two, which lowers the sum by one 2^−v4MaxLen unit.
func capLengths(count *[v4MaxLen + 1]int) {
	total := 0
	for l := 1; l <= v4MaxLen; l++ {
		total += count[l] << (v4MaxLen - l)
	}
	for ; total > 1<<v4MaxLen; total-- {
		count[v4MaxLen]--
		for l := v4MaxLen - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
}

// assign gives every symbol with a length its canonical code.
func (c *v4Code) assign() {
	var count [v4MaxLen + 1]uint16
	for _, l := range c.lens[:c.n] {
		count[l]++
	}
	count[0] = 0
	var next [v4MaxLen + 1]uint16
	code := uint16(0)
	for l := 1; l <= v4MaxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range c.lens[:c.n] {
		if l > 0 {
			c.codes[s] = next[l]
			next[l]++
		}
	}
}

// codeWriter packs bits most significant first into a buffer sized
// beforehand.
type codeWriter struct {
	buf []byte
	o   int    // the next byte of buf
	acc uint64 // pending bits, in the low n
	n   uint
}

// put appends the low k bits of v, k ≤ 32.
func (w *codeWriter) put(v uint64, k uint) {
	if w.n+k > 64 {
		binary.BigEndian.PutUint32(w.buf[w.o:], uint32(w.acc>>(w.n-32)))
		w.o += 4
		w.n -= 32
	}
	w.acc = w.acc<<k | v
	w.n += k
}

// putWide appends the code of symbol sym under c and its x extra bits,
// when together they take more than 32 bits.
func (w *codeWriter) putWide(c *v4Code, sym int, extra uint64, x uint) {
	w.put(uint64(c.codes[sym]), uint(c.lens[sym]))
	if x > 32 {
		w.put(extra>>32, x-32)
		extra, x = extra&(1<<32-1), 32
	}
	w.put(extra, x)
}

// codeRun writes the indices of f under code c, with the writer's state
// in locals; r is the index type's radius.
func codeRun[T bits.Signed](w *codeWriter, c *v4Code, f []T, r T) {
	acc, n, o := w.acc, w.n, w.o
	for _, v := range f {
		sym, extra, x := symbolOf(v, r)
		k := uint(c.lens[sym]) + x
		if k > 32 {
			w.acc, w.n, w.o = acc, n, o
			w.putWide(c, sym, extra, x)
			acc, n, o = w.acc, w.n, w.o
			continue
		}
		if n+k > 64 {
			binary.BigEndian.PutUint32(w.buf[o:], uint32(acc>>(n-32)))
			o += 4
			n -= 32
		}
		acc = acc<<k | uint64(c.codes[sym])<<x | extra
		n += k
	}
	w.acc, w.n, w.o = acc, n, o
}

// flush writes the pending bits, zero bits to the next byte after them.
func (w *codeWriter) flush() {
	for ; w.n >= 8; w.n -= 8 {
		w.buf[w.o] = byte(w.acc >> (w.n - 8))
		w.o++
	}
	if w.n > 0 {
		w.buf[w.o] = byte(w.acc << (8 - w.n))
	}
}

// writeCode writes the code's n and lengths.
func (w *codeWriter) writeCode(c *v4Code) {
	w.put(uint64(c.n), 8)
	for _, l := range c.lens[:c.n] {
		w.put(uint64(l), 4)
	}
}

var errV4Overrun = errors.New("core: v4 index runs end inside a code or its extra bits")

// decodeRuns reads the indices of a v4 stream's coded runs into f, which
// holds as many as the masks mark; ib is the index width in bits.
func decodeRuns[T bits.Signed](runs []byte, f []T, ib int) error {
	if len(runs) == 0 {
		return errors.New("core: v4 stream holds no code")
	}
	n := int(runs[0])
	if n == 0 || n > 2*ib+1 || 1+(4*n+7)/8 > len(runs) {
		return fmt.Errorf("core: v4 code of %d symbols for %d-bit indices", n, ib)
	}
	c := v4Code{n: n}
	kraft := 0
	for s := range c.lens[:n] {
		l := int(runs[1+s/2]>>(4-4*(s&1))) & 15
		if l > v4MaxLen {
			return fmt.Errorf("core: v4 code of length %d, over %d", l, v4MaxLen)
		}
		if l > 0 {
			kraft += 1 << (v4MaxLen - l)
		}
		c.lens[s] = uint8(l)
	}
	if c.lens[n-1] == 0 {
		return errors.New("core: v4 code lists a last symbol that does not occur")
	}
	if kraft != 1<<v4MaxLen {
		return errors.New("core: v4 code is not a complete prefix code")
	}
	c.assign()
	// One entry per v4MaxLen-bit prefix: the bits its symbol takes, code
	// and extra (bits 0–6), and the symbol (8–15). Where the prefix holds
	// the extra bits too, and the index fits 16 bits, the entry holds the
	// index itself (16–31, and bit 7 set). Otherwise, rotating acc left by
	// the bits the symbol takes brings the extra bits to its low end:
	// |v| is those under base, the symbol's |v| without them, or base.
	var (
		tab  [1 << v4MaxLen]uint32
		base [256]uint64
	)
	r := uint64(1)<<(ib-1) - 1
	for s, l := range c.lens[:n] {
		if l == 0 {
			continue
		}
		x := extraBits(s)
		switch {
		case s == 1 || s == 2:
			base[s] = r
		case s >= 3:
			base[s] = 1 << x
		}
		e := uint32(int(l)+x) | uint32(s)<<8
		at, rest := int(c.codes[s])<<(v4MaxLen-l), v4MaxLen-int(l)
		if x > rest || ib > 16 && (s == 1 || s == 2) {
			for j := range tab[at : at+1<<rest] {
				tab[at+j] = e
			}
			continue
		}
		// Each value of the extra bits fills 2^(rest−x) entries.
		for m := base[s]; m < base[s]+1<<x; m++ {
			v := int16(m)
			if s&1 == 0 {
				v = -v
			}
			d := e | 1<<7 | uint32(uint16(v))<<16
			for j := range tab[at : at+1<<(rest-x)] {
				tab[at+j] = d
			}
			at += 1 << (rest - x)
		}
	}
	// acc holds the next nb bits, most significant first, and below them
	// either zeros or the bits of runs[pos:] in their place.
	skip := uint(4 * (n & 1))
	pos, acc, nb := refill(runs, 1+n/2, 0, 0)
	acc, nb = acc<<skip, nb-skip
	i := 0
	// While eight bytes are left one load tops acc up to 56 bits or more,
	// which hold a whole int16 or int32 index, code and extra bits: the
	// loop reads them without checking for the end.
	if most := uint(v4MaxLen + 8*sizeOf[T]() - 2); most <= 56 {
		for ; i < len(f); i++ {
			if nb < most {
				if pos+8 > len(runs) {
					break
				}
				acc |= binary.BigEndian.Uint64(runs[pos:]) >> nb
				pos += int(63-nb) >> 3
				nb |= 56
			}
			e := tab[acc>>(64-v4MaxLen)]
			t := uint(e & 127)
			v := T(int16(e >> 16))
			if e&(1<<7) == 0 {
				rot := mathbits.RotateLeft64(acc, int(t))
				s := uint8(e >> 8)
				sg := uint64(s&1) - 1 // even symbols are negative
				v = T(((rot&(base[s]-1) | base[s]) ^ sg) - sg)
			}
			acc <<= t & 63
			nb -= t
			f[i] = v
		}
	}
	// The last bytes, and int64 indices, whose extra bits may not fit the
	// word beside their code: take the code, then the extra bits 32 at a
	// time, refilling and checking for the end before each.
	for ; i < len(f); i++ {
		if nb < v4MaxLen {
			pos, acc, nb = refill(runs, pos, acc, nb)
		}
		e := tab[acc>>(64-v4MaxLen)]
		s := uint8(e >> 8)
		x := uint(extraBits(int(s)))
		l := uint(e&127) - x
		if l > nb {
			return errV4Overrun
		}
		acc <<= l
		nb -= l
		m := uint64(0)
		for x > 0 {
			k := min(x, 32)
			if k > nb {
				if pos, acc, nb = refill(runs, pos, acc, nb); k > nb {
					return errV4Overrun
				}
			}
			m = m<<k | acc>>(64-k)
			acc <<= k
			nb -= k
			x -= k
		}
		sg := uint64(s&1) - 1 // even symbols are negative; −0 is 0
		f[i] = T(((m | base[s]) ^ sg) - sg)
	}
	// What is left is the pad: under a byte, all zero, nothing after it.
	if pos, acc, nb = refill(runs, pos, acc, nb); pos != len(runs) || nb >= 8 || acc != 0 {
		return errors.New("core: v4 index runs end in set pad bits or trailing bytes")
	}
	return nil
}

// refill tops up acc, which holds nb < 64 bits of runs before pos: to at
// least 56 bits from one 8-byte load while eight bytes are left, then byte
// by byte, so that it reads nothing past runs. The load leaves the start
// of the byte at pos below the nb bits, which is where the next refill
// puts it again.
func refill(runs []byte, pos int, acc uint64, nb uint) (int, uint64, uint) {
	if pos+8 <= len(runs) {
		acc |= binary.BigEndian.Uint64(runs[pos:]) >> nb
		return pos + int(63-nb)>>3, acc, nb | 56
	}
	for ; nb <= 56 && pos < len(runs); pos++ {
		acc |= uint64(runs[pos]) << (56 - nb)
		nb += 8
	}
	return pos, acc, nb
}
