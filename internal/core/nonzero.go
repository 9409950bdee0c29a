package core

import (
	"encoding/binary"
	"math"
	mathbits "math/bits"

	"repro/internal/bits"
)

// The layout of F, and the walks over it. A block is either dense — F
// holds all K of its indices — or masked: a K-bit occupancy mask in
// CompressedArray.occ marks its nonzero positions, and F holds only
// those indices, in position order (stream v3, serialize.go). Compress
// and the Arith results write dense blocks; an array decoded from a v3
// stream holds whatever the encoder chose, masked wherever that is
// smaller. So the runs of F are back to back, and where block k's run
// starts depends on every block before it: a cursor carries that offset
// forward block by block, and every kernel visits blocks in ascending
// order (a ParallelFor worker seeks once to its chunk's first block).
//
// Each kernel picks its body from the block's flag. A dense block runs
// the straight-line loop over its K indices. A masked block recovers
// only its run — its mask says where each index sits when the position
// matters. Every answer is the dense loop's to the bit, by three rules:
//
//   - Every accumulator starts at +0, and under round-to-nearest x + y is
//     −0 only when both are −0, so an accumulator is never −0, and adding
//     ±0 to it — NaN and ±Inf included — leaves it unchanged. A skipped
//     position is therefore invisible whenever its term is ±0.
//   - A zero index recovers Round(N_k·0/r) = +0 only when N_k is finite
//     with its sign bit clear (plain); otherwise it recovers NaN or −0.
//     The encoder writes a block whose N_k is not plain dense, Decode
//     rejects a masked one, and every kernel still checks plain(N_k) on
//     a masked block: an array in memory can hold a masked block whose
//     N_k stopped being plain (MulScalar overflowing it to +Inf), which
//     is then summed over all K positions, its zeros included.
//   - A pair kernel walks the union of both arrays' masks, never the
//     intersection, and a dense block counts as a mask of all ones: the
//     other array's coefficient may be ±Inf (N_k·F_i overflows, or a
//     crafted F_i = −2^(b−1) outgrows r), and +0·Inf = NaN must still
//     be added.
//
// Each sum keeps one accumulator and adds its terms in element order, as
// the dense loops did (they are the test oracle): nothing is reassociated
// or split. blockBounds sums |F_i|·peak_i and F_i², which are +0 for a
// zero index whatever N_k is, so it needs no plain check. The kernels
// that write coefficients out write Round(N_k·0/r) at every position the
// mask leaves out: blockCoefficients into its result, and inverseBlock
// into the block it inverts. Under a plain N_k that is +0, so
// inverseBlock marks the positions the mask holds and inverts the block
// with the transform plan's InverseOccupied, which reads only the lines
// holding a mark and sums only their marked terms, by the first rule
// again: a skipped term is a finite matrix entry times +0, and every
// sum starts at +0 (transform/plan.go). A dense block, and a masked one
// under any other N_k, runs Plan.Inverse over every position.
//
// The differential (nonzero_test.go) checks every kernel, inverseBlock
// included, by Float64bits on the amd64 build CI runs. The compiler never
// fuses x*y+z into one FMA on amd64, at any GOAMD64 level; it may on
// arm64, ppc64le, s390x and riscv64: there a sum can round to −0, the
// first rule no longer holds, and the identity is not claimed.

// span is where block k's indices sit: F[off:end], and when the block is
// masked (at ≥ 0) its mask is the K bits of occ from bit at, the first
// 64 of which are m.
type span struct {
	k, off, end, at int
	m               uint64
}

// word returns the mask bits of positions base to base+63 of masked
// block s, first position topmost.
func (s span) word(occ []byte, base, kept int) uint64 {
	if base == 0 {
		return s.m
	}
	return maskBits(occ, s.at+base, min(64, kept-base))
}

// cursor walks an array's blocks in ascending order.
type cursor struct {
	occ  []byte
	kept int // K
	k    int // the next block
	off  int // where block k's run starts in F
	at   int // where the next masked block's mask starts in occ
}

// cursor returns a cursor at a's first block. The flags take a bit a
// block, so the first mask starts at bit ∏b.
func (c *Compressor) cursor(a *CompressedArray) cursor {
	return cursor{occ: a.occ, kept: len(c.keep), at: len(a.N)}
}

// masked reports whether block k is masked.
func masked(occ []byte, k int) bool {
	return occ != nil && occ[k>>3]<<(k&7)&0x80 != 0
}

// next returns the cursor's block and moves it to the one after.
func (w *cursor) next() span {
	s := span{k: w.k, off: w.off, at: -1}
	w.k++
	if !masked(w.occ, s.k) {
		w.off += w.kept
	} else {
		s.at, s.m = w.at, word64(w.occ, w.at, min(64, w.kept))
		w.off += mathbits.OnesCount64(s.m)
		if w.kept > 64 {
			w.off += ones(w.occ, w.at+64, w.at+w.kept)
		}
		w.at += w.kept
	}
	s.end = w.off
	return s
}

// past moves the cursor past its block, whose run ends at end: for the
// hot kernels, which find that end themselves — by walking the run, or by
// counting the mask inline — so that their loop makes no call per block
// (a call spills their sums, and costs more than a sparse block's work).
func (w *cursor) past(end int) {
	if masked(w.occ, w.k) {
		w.at += w.kept
	}
	w.k++
	w.off = end
}

// seek moves the cursor forward to block k, which must not be behind it,
// counting the blocks it passes a word of flags and of masks at a time.
func (w *cursor) seek(k int) {
	if w.occ == nil {
		w.k, w.off = k, k*w.kept
		return
	}
	if k <= w.k {
		return
	}
	m := ones(w.occ, w.k, k) // masked blocks passed
	w.off += (k-w.k-m)*w.kept + ones(w.occ, w.at, w.at+m*w.kept)
	w.at += m * w.kept
	w.k = k
}

// block returns block k's span, seeking forward to it.
func (w *cursor) block(k int) span {
	w.seek(k)
	return w.next()
}

// maskBits returns the n ≤ 64 bits of occ from bit at, first bit
// topmost, zero below them. Nine bytes from at's byte on hold them all
// (a shift by 8 of the ninth is 0 when at is byte-aligned); in the last
// eight bytes of occ, which may be a bounded slice of a memory mapping,
// no byte past it is read.
func maskBits(occ []byte, at, n int) uint64 {
	i, s := uint(at)>>3, uint(at)&7
	var x uint64
	if i+8 < uint(len(occ)) {
		x = binary.BigEndian.Uint64(occ[i:])<<s | uint64(occ[i+8])>>(8-s)
	} else {
		for _, b := range occ[i:] {
			x = x<<8 | uint64(b)
		}
		x <<= 8*(8-(uint(len(occ))-i)) + s
	}
	return x >> (64 - uint(n)) << (64 - uint(n))
}

// word64 is maskBits, reading a mask word that starts on a byte with one
// load (n|at&7 is 64 exactly when n is 64 and at is a multiple of 8).
func word64(occ []byte, at, n int) uint64 {
	if n|at&7 == 64 {
		return binary.BigEndian.Uint64(occ[at>>3:])
	}
	return maskBits(occ, at, n)
}

// ones counts the set bits of occ in [from, to).
func ones(occ []byte, from, to int) int {
	n := 0
	for ; from < to; from += 64 {
		n += mathbits.OnesCount64(maskBits(occ, from, min(64, to-from)))
	}
	return n
}

// first returns the index at the first position of the block w is at.
func first[T bits.Signed](w *cursor, f []T) T {
	if masked(w.occ, w.k) && w.occ[w.at>>3]<<(w.at&7)&0x80 == 0 {
		return 0
	}
	return f[w.off]
}

// cells reads one block's indices position by position: a dense run in
// order, a masked one through its mask, with a zero wherever the mask
// has none. It serves the bodies that must visit all K positions of a
// masked block.
type cells[T bits.Signed] struct {
	f    []T
	occ  []byte
	s    span
	kept int
	p    int    // the next position
	m    uint64 // the mask bits from position p on, in the top bits
}

func cellsOf[T bits.Signed](f []T, occ []byte, s span, kept int) cells[T] {
	return cells[T]{f: f, occ: occ, s: s, kept: kept}
}

// next returns the index at the next position.
func (c *cells[T]) next() T {
	if c.s.at < 0 {
		v := c.f[c.s.off+c.p]
		c.p++
		return v
	}
	if c.p&63 == 0 {
		c.m = c.s.word(c.occ, c.p, c.kept)
	}
	var v T
	if int64(c.m) < 0 {
		v = c.f[c.s.off]
		c.s.off++
	}
	c.m <<= 1
	c.p++
	return v
}

// side is one array as the pair kernels read it: its own cursor, which
// pairBlock advances itself, and the scratch its masked blocks are
// spread into, zero between blocks.
type side[T bits.Signed] struct {
	cursor
	f   []T
	n   []float64
	buf [64]T
}

func (w width[T]) side(c *Compressor, a *CompressedArray) side[T] {
	return side[T]{cursor: c.cursor(a), f: w.of(a), n: a.N}
}

// pairBlock adds the terms of ⟨x,y⟩, ⟨x,x⟩ and ⟨y,y⟩ of the block both
// sides' cursors are at to ab, aa and bb, in position order, and moves
// the cursors to the next block: over every position when both blocks
// are dense, over the union of the masks when both are masked under
// plain N, else over every position through cells. The union walk first
// spreads each run over its positions in the sides' scratch, 64 at a
// time, so that it reads both indices at a position without a branch,
// and zeroes them as it goes.
func (w width[T]) pairBlock(c *Compressor, x, y *side[T], ab, aa, bb float64) (float64, float64, float64) {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	na, nb := x.n[x.k], y.n[y.k]
	xm, ym := masked(x.occ, x.k), masked(y.occ, y.k)
	switch {
	case !xm && !ym:
		ib := y.f[y.off : y.off+K]
		for i, v := range x.f[x.off : x.off+K] {
			ca, cb := ft.Round(na*float64(v)/r), ft.Round(nb*float64(ib[i])/r)
			ab += ca * cb
			aa += ca * ca
			bb += cb * cb
		}
		x.past(x.off + K)
		y.past(y.off + K)
	case xm && ym && plain(na) && plain(nb):
		va, vb := &x.buf, &y.buf
		ja, jb := x.off, y.off
		for base := 0; base < K; base += 64 {
			n := min(64, K-base)
			ma, mb := word64(x.occ, x.at+base, n), word64(y.occ, y.at+base, n)
			ja = spread(va, ma, x.f, ja)
			jb = spread(vb, mb, y.f, jb)
			for u := ma | mb; u != 0; {
				p := mathbits.LeadingZeros64(u) & 63
				u &^= 1 << 63 >> uint(p)
				ca, cb := ft.Round(na*float64(va[p])/r), ft.Round(nb*float64(vb[p])/r)
				va[p], vb[p] = 0, 0
				ab += ca * cb
				aa += ca * ca
				bb += cb * cb
			}
		}
		x.past(ja)
		y.past(jb)
	default:
		xa, xb := cellsOf(x.f, x.occ, x.next(), K), cellsOf(y.f, y.occ, y.next(), K)
		for p := 0; p < K; p++ {
			ca, cb := ft.Round(na*float64(xa.next())/r), ft.Round(nb*float64(xb.next())/r)
			ab += ca * cb
			aa += ca * ca
			bb += cb * cb
		}
	}
	return ab, aa, bb
}

// spread writes f[j], f[j+1], … to dst at the positions of m's set bits,
// first bit position 0, and returns the index after the last one read.
func spread[T bits.Signed](dst *[64]T, m uint64, f []T, j int) int {
	for ; m != 0; j++ {
		p := mathbits.LeadingZeros64(m) & 63
		m &^= 1 << 63 >> uint(p)
		dst[p] = f[j]
	}
	return j
}

// plain reports whether x is finite with its sign bit clear, so that a
// zero index under it recovers +0.
func plain(x float64) bool { return math.Float64bits(x) < 0x7ff0000000000000 }
