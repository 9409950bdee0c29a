package core

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"

	"repro/internal/tensor"
)

// Negate implements Algorithm 1: {s, i, N, −F}. No additional error.
func (c *Compressor) Negate(a *CompressedArray) (*CompressedArray, error) {
	if err := c.checkOwned(a); err != nil {
		return nil, err
	}
	out := a.Clone()
	out.F.negate()
	return out, nil
}

// Add implements Algorithm 2: element-wise addition of two compressed
// arrays. The sums of specified coefficients are rebinned against the new
// per-block maxima, which is the operation's only source of error beyond
// compression itself (Table I: "rebinning").
func (c *Compressor) Add(a, b *CompressedArray) (*CompressedArray, error) {
	if err := c.checkPair(a, b); err != nil {
		return nil, err
	}
	return c.k.combine(c, a, b, 1), nil
}

// Subtract returns a − b as Add(a, Negate(b)), the compressed-space
// difference used in the shallow-water experiment (§V-A). Negating an
// index negates its coefficient exactly, so the negation is folded into
// the addition instead of cloning b.
func (c *Compressor) Subtract(a, b *CompressedArray) (*CompressedArray, error) {
	if err := c.checkPair(a, b); err != nil {
		return nil, err
	}
	return c.k.combine(c, a, b, -1), nil
}

// combine rebins Ĉa + sign·Ĉb block by block; sign is ±1.
func (w width[T]) combine(c *Compressor, a, b *CompressedArray, sign float64) *CompressedArray {
	out := c.newArray(a.Shape, a.Blocks)
	w.rebinBlocks(c, out, func() func(k int, sum []float64) []float64 {
		ca, cb := c.cursor(a), c.cursor(b)
		other := make([]float64, len(c.keep))
		return func(k int, sum []float64) []float64 {
			w.blockCoefficients(c, a, ca.block(k), sum)
			w.blockCoefficients(c, b, cb.block(k), other)
			for i, v := range other {
				sum[i] += sign * v
			}
			return sum
		}
	})
	return out
}

// AddScalar implements Algorithm 4: adds x to every element by adding
// x·√(∏i) to each block's first coefficient, then rebinning. Unlike the
// paper's pseudocode, N is recomputed after the addition (the pseudocode
// computes it before, which can push the first index out of range).
// Requires the first coefficient to be kept by the mask.
func (c *Compressor) AddScalar(a *CompressedArray, x float64) (*CompressedArray, error) {
	if err := c.checkOwned(a); err != nil {
		return nil, err
	}
	if c.firstKept() < 0 {
		return nil, ErrFirstPruned
	}
	delta := x * c.sqrtVol
	out := c.newArray(a.Shape, a.Blocks)
	c.k.rebinBlocks(c, out, func() func(k int, coeffs []float64) []float64 {
		cur := c.cursor(a)
		return func(k int, coeffs []float64) []float64 {
			c.k.blockCoefficients(c, a, cur.block(k), coeffs)
			coeffs[0] += delta
			return coeffs
		}
	})
	return out, nil
}

// MulScalar implements Algorithm 5: {s, i, N ⊙ |x|, F ⊙ sign(x)}.
// No additional error.
func (c *Compressor) MulScalar(a *CompressedArray, x float64) (*CompressedArray, error) {
	if err := c.checkOwned(a); err != nil {
		return nil, err
	}
	out := a.Clone()
	ax := math.Abs(x)
	ft := c.settings.FloatType
	for k := range out.N {
		out.N[k] = ft.Round(out.N[k] * ax)
	}
	if math.Signbit(x) {
		out.F.negate()
	}
	return out, nil
}

// The reductions below are single serial passes over N and F: each
// coefficient is recovered with Algorithm 3's expression and consumed at
// once, in block-major order, so nothing is materialised and the
// summation order — which the answers' last bits depend on — is fixed.
// The walks skip the indices a masked block leaves out, whose terms are
// exactly +0 (nonzero.go), so they cost in proportion to the nonzero bins.

// Dot implements Algorithm 6: Σ(Ĉ1 ⊙ Ĉ2). Orthonormal transforms preserve
// dot products, so this equals the dot product of the decompressed arrays
// (zero padding contributes nothing). No additional error.
func (c *Compressor) Dot(a, b *CompressedArray) (float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, err
	}
	ab, _, _ := c.k.dot3(c, a, b)
	return ab, nil
}

// dot3 returns ⟨a,b⟩, ⟨a,a⟩ and ⟨b,b⟩ from one pass over both arrays,
// so Dot, Covariance, CosineSimilarity and L2Distance share it. It skips
// only positions where both indices are zero under plain N (nonzero.go).
func (w width[T]) dot3(c *Compressor, a, b *CompressedArray) (ab, aa, bb float64) {
	x, y := w.side(c, a), w.side(c, b)
	for range a.N {
		ab, aa, bb = w.pairBlock(c, &x, &y, ab, aa, bb)
	}
	return ab, aa, bb
}

// blockSums returns the sum of the decompressed array's elements, and
// when dst is non-nil also stores each block's share in it: the first
// coefficient of block k is its mean × √(∏i), so the block sum is
// firstCoeff × √(∏i).
func (w width[T]) blockSums(c *Compressor, a *CompressedArray, dst []float64) float64 {
	ft, r := c.settings.FloatType, c.radius
	K, f := len(c.keep), w.of(a)
	cur := c.cursor(a)
	total := 0.0
	for k, nk := range a.N {
		v := first(&cur, f)
		// As in moments, the cursor moves past a masked run here.
		n := K
		if masked(a.occ, k) {
			n = mathbits.OnesCount64(word64(a.occ, cur.at, min(64, K)))
			if K > 64 {
				n += ones(a.occ, cur.at+64, cur.at+K)
			}
		}
		cur.past(cur.off + n)
		// The conversion keeps the product from fusing into the sum.
		s := float64(ft.Round(nk*float64(v)/r) * c.sqrtVol)
		if dst != nil {
			dst[k] = s
		}
		total += s
	}
	return total
}

// moments returns blockSums(c, a, nil) and Σ Ĉ² from one walk of N and
// F. Each sum accumulates in its own order, with blockSums' expressions
// for the first, so both are bit-identical to summing separately. Σ Ĉ²
// needs no first coefficient: it is L2Norm's and Variance's sum of
// squares under any mask. A masked block under plain N adds its run
// alone, in position order; its first coefficient, when the mask leaves
// it out, is +0 and adds nothing to either sum.
func (w width[T]) moments(c *Compressor, a *CompressedArray) (sum, sumSq float64) {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	f := w.of(a)
	cur := c.cursor(a)
	for k, nk := range a.N {
		// run holds the block's indices to add, lead whether its first
		// is the first position's.
		var run []T
		lead := true
		if !masked(a.occ, k) {
			run = f[cur.off : cur.off+K]
			cur.past(cur.off + K)
		} else {
			if !plain(nk) {
				cl := cellsOf(f, a.occ, cur.next(), K)
				c0 := ft.Round(nk * float64(cl.next()) / r)
				sum += float64(c0 * c.sqrtVol)
				sumSq += c0 * c0
				for p := 1; p < K; p++ {
					ca := ft.Round(nk * float64(cl.next()) / r)
					sumSq += ca * ca
				}
				continue
			}
			// The cursor moves past the run here, not through next, so
			// that the walk keeps its sums in registers.
			m := word64(a.occ, cur.at, min(64, K))
			n := mathbits.OnesCount64(m)
			if K > 64 {
				n += ones(a.occ, cur.at+64, cur.at+K)
			}
			// A left-out first position's +0 adds nothing to either sum.
			run, lead = f[cur.off:cur.off+n], int64(m) < 0
			cur.past(cur.off + n)
		}
		if lead {
			c0 := ft.Round(nk * float64(run[0]) / r)
			// The conversion keeps the product from fusing into the sum.
			sum += float64(c0 * c.sqrtVol)
			sumSq += c0 * c0
			run = run[1:]
		}
		for _, v := range run {
			ca := ft.Round(nk * float64(v) / r)
			sumSq += ca * ca
		}
	}
	return sum, sumSq
}

// Moments returns the element count ∏s, the element sum Σx and the sum of
// squares Σ Ĉ² of the array a decompresses to, from one walk of N and F:
// the quantities Mean, Variance and L2Norm each walk F for. Mean is
// sum/n, Variance (sumSq − sum·sum/n)/n and L2Norm √sumSq, each
// bit-identical to the method. Requires the first coefficient
// (ErrFirstPruned), as Mean does.
func (c *Compressor) Moments(a *CompressedArray) (n int, sum, sumSq float64, err error) {
	if err := c.checkOwned(a); err != nil {
		return 0, 0, 0, err
	}
	if c.firstKept() < 0 {
		return 0, 0, 0, ErrFirstPruned
	}
	sum, sumSq = c.k.moments(c, a)
	return a.OriginalLen(), sum, sumSq, nil
}

// Mean implements Algorithm 7 with an exact padding correction. The
// paper's formula mean(Ĉ...1) ⊘ √(∏i) averages over the zero-padded
// domain; since padding is zero the element sum is unchanged, so dividing
// by ∏s instead of ∏(b⊙i) yields the mean of the original array. When
// the shape divides the block shape the two coincide and this is exactly
// Algorithm 7. Requires the first coefficient to be kept.
func (c *Compressor) Mean(a *CompressedArray) (float64, error) {
	if err := c.checkOwned(a); err != nil {
		return 0, err
	}
	if c.firstKept() < 0 {
		return 0, ErrFirstPruned
	}
	return c.k.blockSums(c, a, nil) / float64(a.OriginalLen()), nil
}

// Covariance implements Algorithm 8 (population covariance), again with
// the exact padding correction: cov = (Σ Ĉ1⊙Ĉ2 − ΣA·ΣB/n) / n where n =
// ∏s. Without padding this is algebraically identical to the paper's
// centered-coefficient formulation. Requires the first coefficient.
func (c *Compressor) Covariance(a, b *CompressedArray) (float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, err
	}
	if c.firstKept() < 0 {
		return 0, ErrFirstPruned
	}
	var dot, sumA, sumB float64
	if a == b {
		sumA, dot = c.k.moments(c, a)
		sumB = sumA
	} else {
		dot, _, _ = c.k.dot3(c, a, b)
		sumA, sumB = c.k.blockSums(c, a, nil), c.k.blockSums(c, b, nil)
	}
	n := float64(a.OriginalLen())
	return (dot - sumA*sumB/n) / n, nil
}

// Variance implements Algorithm 9: Covariance(A, A).
func (c *Compressor) Variance(a *CompressedArray) (float64, error) {
	return c.Covariance(a, a)
}

// StdDev returns the standard deviation √Variance(A) (§IV-A8).
func (c *Compressor) StdDev(a *CompressedArray) (float64, error) {
	v, err := c.Variance(a)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// L2Norm implements Algorithm 10: ‖Ĉ‖₂. Orthonormality makes this the L2
// norm of the decompressed array. No additional error.
func (c *Compressor) L2Norm(a *CompressedArray) (float64, error) {
	if err := c.checkOwned(a); err != nil {
		return 0, err
	}
	_, sumSq := c.k.moments(c, a)
	return math.Sqrt(sumSq), nil
}

// CosineSimilarity implements Algorithm 11: Dot(A,B) / (‖A‖₂·‖B‖₂).
func (c *Compressor) CosineSimilarity(a, b *CompressedArray) (float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, err
	}
	ab, aa, bb := c.k.dot3(c, a, b)
	return ab / (math.Sqrt(aa) * math.Sqrt(bb)), nil
}

// BlockMeans returns the block-wise mean (§IV-A6): Ĉ...1 ⊘ √(∏i), shaped
// like the block arrangement b. Requires the first coefficient.
func (c *Compressor) BlockMeans(a *CompressedArray) (*tensor.Tensor, error) {
	if err := c.checkOwned(a); err != nil {
		return nil, err
	}
	if c.firstKept() < 0 {
		return nil, ErrFirstPruned
	}
	vol := float64(tensor.Prod(c.settings.BlockShape))
	out := tensor.New(a.Blocks...)
	means := out.Data()
	c.k.blockSums(c, a, means)
	for k := range means {
		means[k] /= vol
	}
	return out, nil
}

// BlockVariances returns the block-wise population variance (§IV-A8): for
// each block, mean of squared coefficients minus squared block mean,
// over the block's ∏i (padded) elements.
func (c *Compressor) BlockVariances(a *CompressedArray) (*tensor.Tensor, error) {
	return c.BlockCovariances(a, a)
}

// SSIMOptions configures StructuralSimilarity (Algorithm 12).
type SSIMOptions struct {
	// LuminanceStabilizer is s_l; defaults to (0.01·L)² with L = 1.
	LuminanceStabilizer float64
	// ContrastStabilizer is s_c; defaults to (0.03·L)² with L = 1.
	ContrastStabilizer float64
	// LuminanceWeight, ContrastWeight, StructureWeight are w_l, w_c, w_s;
	// all default to 1.
	LuminanceWeight, ContrastWeight, StructureWeight float64
}

// DefaultSSIMOptions returns the standard SSIM constants for data in
// [0, 1]: s_l = 1e-4, s_c = 9e-4, unit weights.
func DefaultSSIMOptions() SSIMOptions {
	return SSIMOptions{
		LuminanceStabilizer: 1e-4,
		ContrastStabilizer:  9e-4,
		LuminanceWeight:     1,
		ContrastWeight:      1,
		StructureWeight:     1,
	}
}

// StructuralSimilarity implements Algorithm 12: the global SSIM index
// computed entirely from compressed-space mean, variance and covariance.
func (c *Compressor) StructuralSimilarity(a, b *CompressedArray, opts SSIMOptions) (float64, error) {
	muA, err := c.Mean(a)
	if err != nil {
		return 0, err
	}
	muB, err := c.Mean(b)
	if err != nil {
		return 0, err
	}
	varA, err := c.Variance(a)
	if err != nil {
		return 0, err
	}
	varB, err := c.Variance(b)
	if err != nil {
		return 0, err
	}
	cov, err := c.Covariance(a, b)
	if err != nil {
		return 0, err
	}
	sigA := math.Sqrt(math.Max(varA, 0))
	sigB := math.Sqrt(math.Max(varB, 0))
	sl, sc := opts.LuminanceStabilizer, opts.ContrastStabilizer
	l := (2*muA*muB + sl) / (muA*muA + muB*muB + sl)
	con := (2*sigA*sigB + sc) / (varA + varB + sc)
	str := (cov + sc/2) / (sigA*sigB + sc/2)
	return math.Pow(l, opts.LuminanceWeight) *
		math.Pow(con, opts.ContrastWeight) *
		math.Pow(str, opts.StructureWeight), nil
}

// softmax applies the numerically stable softmax in place.
func softmax(xs []float64) {
	if len(xs) == 0 {
		return
	}
	max := xs[0]
	for _, v := range xs[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range xs {
		xs[i] = math.Exp(v - max)
		sum += xs[i]
	}
	for i := range xs {
		xs[i] /= sum
	}
}

// WassersteinDistance implements Algorithm 13: the approximate p-order
// Wasserstein distance computed from block-wise means. Arrays whose
// block-mean mass does not sum to 1 are first pushed through softmax so
// that both are probability distributions. The approximation error is a
// function of the block size (§IV-B); one-element blocks are exact.
func (c *Compressor) WassersteinDistance(a, b *CompressedArray, p float64) (float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, err
	}
	if p <= 0 {
		return 0, fmt.Errorf("core: Wasserstein order p = %g must be positive", p)
	}
	if c.firstKept() < 0 {
		return 0, ErrFirstPruned
	}
	ma, err := c.BlockMeans(a)
	if err != nil {
		return 0, err
	}
	mb, err := c.BlockMeans(b)
	if err != nil {
		return 0, err
	}
	return wasserstein1D(ma.Data(), mb.Data(), p), nil
}

// wasserstein1D computes the paper's sorted-coupling distance between two
// equal-length mass vectors, normalizing each through softmax when it is
// not already a probability distribution.
func wasserstein1D(pa, pb []float64, p float64) float64 {
	a := append([]float64(nil), pa...)
	b := append([]float64(nil), pb...)
	if s := sum(a); math.Abs(s-1) > 1e-9 {
		softmax(a)
	}
	if s := sum(b); math.Abs(s-1) > 1e-9 {
		softmax(b)
	}
	sort.Float64s(a)
	sort.Float64s(b)
	acc := 0.0
	for i := range a {
		acc += math.Pow(math.Abs(a[i]-b[i]), p)
	}
	return math.Pow(acc/float64(len(a)), 1/p)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}
