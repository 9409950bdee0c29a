package core

import (
	"errors"
	"math"
)

// Derived distance metrics built from the Table I primitives. These are
// the "more sophisticated measures" the paper's future-work section wants
// for ensemble testing (§VI): everything here runs wholly in compressed
// space.

// L2Distance returns ‖A − B‖₂ computed in compressed space. Expanding
// ‖A−B‖² = ‖A‖² − 2⟨A,B⟩ + ‖B‖² avoids the rebinning error a
// subtract-then-norm evaluation would add, so like Dot it introduces no
// error beyond compression.
func (c *Compressor) L2Distance(a, b *CompressedArray) (float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, err
	}
	ab, aa, bb := c.k.dot3(c, a, b)
	return math.Sqrt(math.Max(aa-2*ab+bb, 0)), nil
}

// MSE returns the mean squared error between A and B over the original
// (unpadded) domain, computed in compressed space.
func (c *Compressor) MSE(a, b *CompressedArray) (float64, error) {
	d, err := c.L2Distance(a, b)
	if err != nil {
		return 0, err
	}
	return d * d / float64(a.OriginalLen()), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between A and B,
// given the data's peak value (e.g. 1 for normalized images). Infinite
// for identical arrays.
func (c *Compressor) PSNR(a, b *CompressedArray, peak float64) (float64, error) {
	mse, err := c.MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(peak*peak/mse), nil
}

// NormalizedRMSE returns RMSE(A,B) divided by the given value range —
// the distance measure ensemble-testing pipelines typically threshold.
func (c *Compressor) NormalizedRMSE(a, b *CompressedArray, valueRange float64) (float64, error) {
	mse, err := c.MSE(a, b)
	if err != nil {
		return 0, err
	}
	if valueRange <= 0 {
		return 0, errors.New("core: value range must be positive")
	}
	return math.Sqrt(mse) / valueRange, nil
}
