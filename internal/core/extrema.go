package core

import (
	"errors"
	"math"
	mathbits "math/bits"

	"repro/internal/transform"
)

// Extrema in compressed space, by branch and bound over the blocks of one
// array (the pruning Conan-Guez & Rossi use to accelerate SOM on a
// dissimilarity table). Within block b of volume V = ∏i every element is
//
//	x_j = Ĉ₀/√V + Σ_{i≥1} Ĉ_i·φ_i(j)
//
// for the block's orthonormal basis φ, whose first vector is the constant
// 1/√V under DCT, Haar and Walsh–Hadamard. A row of an orthonormal matrix
// has unit norm, so Σ_{i≥1} φ_i(j)² = 1 − 1/V, and each φ_i is bounded by
// its peak p_i = max_j |φ_i(j)|. Hence, with m_b = Ĉ₀/√V,
//
//	|x_j − m_b| ≤ r_b = min(‖AC_b‖₂·√(1 − 1/V), Σ_{i≥1} |Ĉ_i|·p_i) + δ_b,
//
// where AC_b is every coefficient but the first and δ_b covers the
// float64 rounding of the inverse transform that actually produces x_j.
// The first term is Cauchy–Schwarz; the second is much the tighter on
// smooth blocks, whose few large coefficients have small peaks (¼ for an
// 8×8 DCT basis function against √(63/64)). One walk of F gives every
// block's interval; then only the blocks whose interval can still beat
// the running minimum or maximum are inverse-transformed, each at most
// once, by the code Decompress runs.

// ErrExtremaUndecided is returned by Extrema when the block bounds cannot
// settle the answer bit for bit: the identity transform (its first basis
// vector is not constant), a non-finite N_k or block bound (NaN input,
// half-precision overflow), or an extreme that is a zero, whose sign a
// decoded scan picks by its own rule. The caller decompresses instead.
var ErrExtremaUndecided = errors.New("core: extrema undecided in compressed space")

// roundingSlack is δ_b per unit of block volume and of Σ|Ĉ_b|. The
// separable inverse loses at most about 6·V·2⁻⁵³·Σ|Ĉ_b| (γ_L on each
// axis, grown by at most √L on every later one) and the bound's own
// arithmetic less than V/2·2⁻⁵³·Σ|Ĉ_b|, so 16·2⁻⁵³ leaves room. A slack
// that undercounts skips a block holding the extreme; one that overcounts
// only visits more blocks.
const roundingSlack = 16 * 0x1p-53

// underflowSlack covers the absolute rounding of the inverse transform's
// subnormal intermediates, which a slack relative to Σ|Ĉ_b| does not.
const underflowSlack = 0x1p-1000

// Extrema returns the smallest and largest element of the array a
// decompresses to, bit-identical to Decompress followed by Tensor.Min and
// Tensor.Max, without decompressing a: it inverse-transforms only the
// blocks whose bound can hold an extreme. It allocates the bounds (two
// floats a block) and one block buffer. It returns ErrExtremaUndecided
// where the bounds cannot decide (see there).
func (c *Compressor) Extrema(a *CompressedArray) (lo, hi float64, err error) {
	lo, hi, _, err = c.extrema(a)
	return lo, hi, err
}

// extrema is Extrema that also reports how many blocks it inverted.
func (c *Compressor) extrema(a *CompressedArray) (lo, hi float64, visited int, err error) {
	if err := c.checkOwned(a); err != nil {
		return 0, 0, 0, err
	}
	n := a.NumBlocks()
	if c.settings.Transform == transform.Identity || n == 0 {
		return 0, 0, 0, ErrExtremaUndecided
	}
	bounds := make([]float64, 2*n)
	top, bot, ok := c.k.blockBounds(c, a, bounds)
	if !ok {
		return 0, 0, 0, ErrExtremaUndecided
	}
	buf := c.blockBuffer()
	lo, hi = math.Inf(1), math.Inf(-1)
	// Seed with the two most promising blocks, then sweep once over the
	// rest: a block is visited only while its interval reaches past the
	// running extremes, and one visit updates both. The seeds are folded
	// in block order, which one forward cursor finds: folding takes the
	// minimum and the maximum, whose values do not depend on the order,
	// and only a zero's sign does, which is undecided anyway.
	seed := c.cursor(a)
	lo, hi = c.foldBlock(a, seed.block(min(top, bot)), buf, lo, hi)
	visited = 1
	if bot != top {
		lo, hi = c.foldBlock(a, seed.block(max(top, bot)), buf, lo, hi)
		visited++
	}
	sweep := c.cursor(a)
	for k := 0; k < n; k++ {
		if k != top && k != bot && (bounds[2*k] < lo || bounds[2*k+1] > hi) {
			lo, hi = c.foldBlock(a, sweep.block(k), buf, lo, hi)
			visited++
		}
	}
	if lo == 0 || hi == 0 {
		return 0, 0, visited, ErrExtremaUndecided
	}
	return lo, hi, visited, nil
}

// foldBlock reconstructs block s with Decompress's own inverseBlock and
// folds its in-array cells — the ones BlockCursor.Scatter keeps — into lo
// and hi with the comparisons Tensor.Min and Tensor.Max use.
func (c *Compressor) foldBlock(a *CompressedArray, s span, buf blockBuf, lo, hi float64) (float64, float64) {
	c.k.inverseBlock(c, a, s, buf)
	k, block := s.k, buf.block
	// The block's last cell is its far corner: if that is in the array,
	// every cell is.
	whole := c.inArray(a, k, len(block)-1)
	for j, v := range block {
		if !whole && !c.inArray(a, k, j) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// basisPeaks returns max_j |φ_pos(j)| for every kept position pos: the
// product over the axes of the largest entry in that axis's matrix column.
func basisPeaks(tr *transform.Transform, blockShape, keep []int) []float64 {
	colPeaks := make([][]float64, len(blockShape))
	for ax, L := range blockShape {
		H := tr.Matrix(L)
		colPeaks[ax] = make([]float64, L)
		for i, h := range H {
			colPeaks[ax][i%L] = max(colPeaks[ax][i%L], math.Abs(h))
		}
	}
	peaks := make([]float64, len(keep))
	for i, pos := range keep {
		p := 1.0
		for ax := len(blockShape) - 1; ax >= 0; ax-- {
			p *= colPeaks[ax][pos%blockShape[ax]]
			pos /= blockShape[ax]
		}
		peaks[i] = p
	}
	return peaks
}

// inArray reports whether cell j of block k (row-major within the block)
// lies inside a's shape rather than in the zero padding of an edge block.
func (c *Compressor) inArray(a *CompressedArray, k, j int) bool {
	bs := c.settings.BlockShape
	for ax := len(bs) - 1; ax >= 0; ax-- {
		if k%a.Blocks[ax]*bs[ax]+j%bs[ax] >= a.Shape[ax] {
			return false
		}
		k /= a.Blocks[ax]
		j /= bs[ax]
	}
	return true
}

// blockBounds writes block k's interval [m_b − r_b, m_b + r_b] to
// dst[2k] and dst[2k+1]. It returns the blocks with the largest upper and
// the smallest lower end; ok is false as soon as an interval is not
// finite. The centre m_b comes from Ĉ₀ as inverseBlock recovers it; the
// radius needs only Σ|F_i|·peak_i and Σ F_i² over the other coefficients,
// scaled once per block, so the walk divides once a block, not once a
// coefficient, and it skips the indices a masked block leaves out
// (nonzero.go).
func (w width[T]) blockBounds(c *Compressor, a *CompressedArray, dst []float64) (top, bot int, ok bool) {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	f := w.of(a)
	vol := float64(c.plan.Vol())
	spread := math.Sqrt(1 - 1/vol)
	// lead is 1 when the first kept position is the DC coefficient.
	lead := 0
	if c.keep[0] == 0 {
		lead = 1
	}
	peak := c.peak[lead:]
	// Ĉ_i = ft.Round(N_k·F_i/r) is within ft's machine epsilon of the real
	// N_k·F_i/r, relatively, plus ft's smallest subnormal below its normal
	// range.
	grow, tiny := 1+ft.MachineEpsilon(), ft.SmallestSubnormal()
	peakSum := 0.0
	for _, p := range peak {
		peakSum += p
	}
	l1Tiny, l2Tiny := tiny*peakSum, tiny*math.Sqrt(float64(len(peak)))*spread
	cur := c.cursor(a)
	for k, nk := range a.N {
		var dc float64
		if lead == 1 {
			dc = ft.Round(nk * float64(first(&cur, f)) / r)
		}
		// A zero index adds exactly +0 to both sums, whatever N_k is, so
		// a masked block adds its run alone.
		var s1, s2 float64
		if !masked(a.occ, k) {
			ac := f[cur.off+lead : cur.off+K]
			pk := peak[:len(ac)]
			for i, v := range ac {
				x := float64(v)
				s1 += math.Abs(x) * pk[i]
				s2 += x * x
			}
			cur.past(cur.off + K)
		} else {
			j := cur.off
			for base := 0; base < K; base += 64 {
				for m := word64(a.occ, cur.at+base, min(64, K-base)); m != 0; j++ {
					lz := mathbits.LeadingZeros64(m)
					m &^= 1 << 63 >> uint(lz)
					if p := base + lz - lead; p >= 0 {
						x := float64(f[j])
						s1 += math.Abs(x) * peak[p]
						s2 += x * x
					}
				}
			}
			cur.past(j)
		}
		// |N_k|: Compress never writes a negative one, a decoded stream may.
		scale := math.Abs(nk) / r * grow
		l1 := scale*s1 + l1Tiny
		l2 := scale*math.Sqrt(s2)*spread + l2Tiny
		// Σ_{i≥1}|Ĉ_i| ≤ √V·l1, since every peak is at least 1/√V.
		rad := min(l1, l2) + roundingSlack*vol*(math.Abs(dc)+c.sqrtVol*l1) + underflowSlack
		m := dc / c.sqrtVol
		lo, hi := m-rad, m+rad
		if !(math.Abs(lo) <= math.MaxFloat64 && math.Abs(hi) <= math.MaxFloat64) {
			return 0, 0, false
		}
		dst[2*k], dst[2*k+1] = lo, hi
		if hi > dst[2*top+1] {
			top = k
		}
		if lo < dst[2*bot] {
			bot = k
		}
	}
	return top, bot, true
}
