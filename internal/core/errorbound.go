package core

import (
	"math"

	"repro/internal/tensor"
)

// Stage-wise error analysis (§IV-D), the quantitative form of the paper's
// future-work item "rigorous stage-wise error analysis for PyBlaz similar
// to what has been done for ZFP". All bounds are per compressed array and
// cost O(number of blocks).

// ErrorBounds describes guaranteed reconstruction-error bounds for one
// compressed array, derived from its per-block biggest coefficients.
type ErrorBounds struct {
	// BinningLinfPerCoeff is the largest per-coefficient binning error
	// across blocks: max_k N_k/(2r+1) (§IV-D: half a bin width).
	BinningLinfPerCoeff float64
	// BlockL2 is the largest per-block L2 reconstruction error bound from
	// binning: max_k √(∏i)·N_k/(2r+1). Orthonormality makes the block's
	// spatial L2 error equal the coefficient-space L2 error.
	BlockL2 float64
	// LooseLinf is the §IV-D "rather loose" per-element bound
	// max_k ‖C_k‖∞·∏i, valid even under pruning.
	LooseLinf float64
}

// ErrorBoundsFor computes the §IV-D bounds for a. Pruned coefficients are
// covered only by the loose L∞ bound (the pruning error is the pruned
// coefficients themselves, which the compressed form no longer knows).
func (c *Compressor) ErrorBoundsFor(a *CompressedArray) (ErrorBounds, error) {
	if err := c.checkOwned(a); err != nil {
		return ErrorBounds{}, err
	}
	maxN := 0.0
	for _, n := range a.N {
		if n > maxN || math.IsNaN(n) {
			maxN = n
		}
	}
	vol := float64(tensor.Prod(c.settings.BlockShape))
	bins := 2*c.radius + 1
	return ErrorBounds{
		BinningLinfPerCoeff: maxN / bins,
		BlockL2:             math.Sqrt(vol) * maxN / bins,
		LooseLinf:           maxN * vol,
	}, nil
}

// VerifyReconstruction decompresses a and checks it against the original
// input, returning the measured L∞ and per-block L2 maxima together with
// the guaranteed bounds. Intended for the paper's verification use case
// (§VI): "subtle flaws might look confusingly similar to actual data
// aberrations", so measured-vs-bound is an executable invariant.
func (c *Compressor) VerifyReconstruction(original *tensor.Tensor, a *CompressedArray) (measuredLinf, measuredBlockL2 float64, bounds ErrorBounds, err error) {
	bounds, err = c.ErrorBoundsFor(a)
	if err != nil {
		return 0, 0, bounds, err
	}
	dec, err := c.Decompress(a)
	if err != nil {
		return 0, 0, bounds, err
	}
	measuredLinf = original.MaxAbsDiff(dec)

	ob := tensor.BlockTensor(original, c.settings.BlockShape)
	db := tensor.BlockTensor(dec, c.settings.BlockShape)
	for k := 0; k < ob.NumBlocks(); k++ {
		s := 0.0
		o, d := ob.Block(k), db.Block(k)
		for i := range o {
			diff := o[i] - d[i]
			s += diff * diff
		}
		if l2 := math.Sqrt(s); l2 > measuredBlockL2 {
			measuredBlockL2 = l2
		}
	}
	return measuredLinf, measuredBlockL2, bounds, nil
}

// BlockCovariances returns the block-wise covariance of two compressed
// arrays (§IV-A7: "Block-wise covariance is also available by getting the
// block-wise means of this product"), shaped like the block arrangement.
func (c *Compressor) BlockCovariances(a, b *CompressedArray) (*tensor.Tensor, error) {
	if err := c.checkPair(a, b); err != nil {
		return nil, err
	}
	if c.firstKept() < 0 {
		return nil, ErrFirstPruned
	}
	out := tensor.New(a.Blocks...)
	c.k.blockCovariances(c, a, b, out.Data())
	return out, nil
}

// blockCovariances stores per block ⟨Ĉa,Ĉb⟩/∏i − mean(a)·mean(b) in dst,
// the dot product walked as dot3 walks it (pairBlock).
func (w width[T]) blockCovariances(c *Compressor, a, b *CompressedArray, dst []float64) {
	ft, r := c.settings.FloatType, c.radius
	vol := float64(tensor.Prod(c.settings.BlockShape))
	tensor.ParallelFor(len(dst), func(start, end int) {
		x, y := w.side(c, a), w.side(c, b)
		x.seek(start)
		y.seek(start)
		for k := start; k < end; k++ {
			// The first indices, read before pairBlock moves past them.
			meanA := ft.Round(a.N[k]*float64(first(&x.cursor, x.f))/r) / c.sqrtVol
			meanB := ft.Round(b.N[k]*float64(first(&y.cursor, y.f))/r) / c.sqrtVol
			dot, _, _ := w.pairBlock(c, &x, &y, 0, 0, 0)
			dst[k] = dot/vol - meanA*meanB
		}
	})
}

// BlockStdDevs returns the block-wise standard deviation (§IV-A8).
func (c *Compressor) BlockStdDevs(a *CompressedArray) (*tensor.Tensor, error) {
	v, err := c.BlockVariances(a)
	if err != nil {
		return nil, err
	}
	return v.Map(func(x float64) float64 { return math.Sqrt(math.Max(x, 0)) }), nil
}
