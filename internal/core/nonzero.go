package core

import (
	"encoding/binary"
	"math"
	mathbits "math/bits"

	"repro/internal/bits"
)

// The reductions over F — moments (every aggregate and reduce state,
// L2Norm, Variance), dot3 (Dot, CosineSimilarity, the distances,
// Covariance), blockCovariances and blockBounds — do work in proportion
// to the nonzero bin indices, not to K·blocks. They read F a 64-bit word
// at a time through a byte view (bytesOf): a SWAR test marks the word's
// nonzero lanes (of 8 int8s, 4 int16s, 2 int32s or 1 int64), and only
// those are recovered, in ascending position order. Each block picks one
// of two bodies: that walk, when two of its words sampled where smooth
// data is zero are (nearly) all zero, or else the straight-line loop over
// every position. Smooth data binned at int8 is mostly zeros — 98 % of
// the benchmark's 256² grid — while noise has almost none.
//
// Either body gives every answer to the bit, by three rules:
//
//   - Every accumulator starts at +0, and under round-to-nearest x + y is
//     −0 only when both are −0, so an accumulator is never −0, and adding
//     ±0 to it — NaN and ±Inf included — leaves it unchanged. A skipped
//     position is therefore invisible whenever its term is ±0.
//   - A zero index recovers Round(N_k·0/r) = ±0 only when N_k is finite;
//     a NaN or ±Inf N_k recovers NaN. A block whose N_k is not finite
//     (either array's, for a pair) takes the straight-line loop, which
//     visits every position.
//   - A pair kernel walks the union of both arrays' nonzero lanes, never
//     the intersection: the other array's coefficient may be ±Inf
//     (N_k·F_i overflows, or a crafted F_i = −2^(b−1) outgrows r), and
//     ±0·Inf = NaN must still be added.
//
// Each sum keeps one accumulator and adds its terms in element order, as
// the dense loops did (they are the test oracle): nothing is reassociated
// or split. blockBounds sums |F_i|·peak_i and F_i², which are +0 for a
// zero index whatever N_k is, so it needs no guard.

// lanes is F of one index width seen as 64-bit words.
type lanes struct {
	hi    uint64 // the top bit of every lane
	n     int    // lanes per word
	size  int    // bytes per lane
	shift uint   // log2 of the lane width in bits
}

func lanesOf[T bits.Signed]() lanes {
	switch sizeOf[T]() {
	case 1:
		return lanes{0x8080808080808080, 8, 1, 3}
	case 2:
		return lanes{0x8000800080008000, 4, 2, 4}
	case 4:
		return lanes{0x8000000080000000, 2, 4, 5}
	}
	return lanes{1 << 63, 1, 8, 6}
}

// sparse reports whether the block of F positions [start, end), of which
// b is the bytes, is walked lane by lane rather than looped over: when
// the word that ends the block and the word that starts at its middle
// have at most one nonzero lane between them. A block's last positions
// are its highest frequencies, which smooth data zeroes first; the middle
// word keeps out of the walk a block that is dense but for that corner.
// On BenchmarkKernels' smooth frames every block is walked and on its
// noise frames none is; 8×8×8 int16 fission frames with 40 % zeros, which
// the last word alone sent to the walk at 1.3× the plain loop's cost,
// are not walked either. An F shorter than a word is never walked, so
// word always has eight bytes to read.
func (l lanes) sparse(b []byte, start, end int) bool {
	if len(b) < 8 {
		return false
	}
	m := l.flags(l.before(b, end) | l.before(b, min((start+end)/2+l.n, end)))
	return m&(m-1) == 0
}

// before returns the word that ends at F position e, or F's first word.
func (l lanes) before(b []byte, e int) uint64 {
	return binary.LittleEndian.Uint64(b[max(e*l.size-8, 0):])
}

// word returns the word at F position p, of which b is the bytes (at
// least eight: see sparse). Near the end of F it reads F's last eight
// bytes and shifts position p down to lane 0, so lanes past the end read
// as zero. A word is 0 exactly when all of its lanes are, and the OR of
// two arrays' words has a nonzero lane wherever either array does.
func (l lanes) word(b []byte, p int) uint64 {
	i := p * l.size
	if i <= len(b)-8 {
		return binary.LittleEndian.Uint64(b[i:])
	}
	return binary.LittleEndian.Uint64(b[len(b)-8:]) >> (uint(i-len(b)+8) * 8 & 63)
}

// flags returns the top bit of every nonzero lane of x.
func (l lanes) flags(x uint64) uint64 {
	// A lane's top bit is set by its own, or by the carry out of its low
	// bits, which stops at that top bit.
	return ((x&^l.hi + ^l.hi) | x) & l.hi
}

// nonzero returns flags(x) for the first left lanes of x only (all of
// them when left ≥ l.n).
func (l lanes) nonzero(x uint64, left int) uint64 {
	m := l.flags(x)
	if left < l.n {
		m &= l.hi >> (uint(l.n-left) << l.shift)
	}
	return m
}

// lane returns the lane whose top bit is m's lowest set bit.
func (l lanes) lane(m uint64) int { return mathbits.TrailingZeros64(m) >> l.shift }

func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }
