package core

import (
	"fmt"
	"math"
)

// Differentiable compressed-space operations. The paper notes that every
// operation except the approximate Wasserstein distance is differentiable,
// "enabling their incorporation into gradient-based optimization
// pipelines" (§IV). PyBlaz gets this from PyTorch autograd; here the
// gradients are analytic, taken with respect to the specified-coefficient
// vector Ĉ of the first argument. Because every scalar operation is a
// smooth function of Ĉ (sums, products, square roots away from zero), the
// gradients below are exact; tests verify them against central finite
// differences.
//
// The coefficient vector is block-major with K kept entries per block,
// exactly the layout of CompressedArray.F scaled by N/r — obtain it with
// Coefficients, perturb or optimize it freely, and rebuild a compressed
// array with FromCoefficients.

// Coefficients returns the specified coefficients Ĉ of a (Algorithm 3) as
// a mutable vector.
func (c *Compressor) Coefficients(a *CompressedArray) ([]float64, error) {
	if err := c.checkOwned(a); err != nil {
		return nil, err
	}
	return c.specifiedCoefficients(a), nil
}

// FromCoefficients builds a compressed array with the same geometry as
// template from a coefficient vector (rebinned against fresh per-block
// maxima). It inverts Coefficients up to binning error.
func (c *Compressor) FromCoefficients(template *CompressedArray, coeffs []float64) (*CompressedArray, error) {
	if err := c.checkOwned(template); err != nil {
		return nil, err
	}
	if len(coeffs) != template.F.Len() {
		return nil, fmt.Errorf("core: coefficient vector length %d, want %d", len(coeffs), template.F.Len())
	}
	return c.rebin(template, coeffs), nil
}

// DotValueGrad returns ⟨a, b⟩ and ∂⟨a,b⟩/∂Ĉa = Ĉb.
func (c *Compressor) DotValueGrad(a, b *CompressedArray) (float64, []float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, nil, err
	}
	ca := c.specifiedCoefficients(a)
	cb := c.specifiedCoefficients(b)
	v := 0.0
	for i := range ca {
		v += ca[i] * cb[i]
	}
	return v, cb, nil
}

// L2NormValueGrad returns ‖a‖₂ and ∂‖a‖₂/∂Ĉa = Ĉa/‖a‖₂. The gradient is
// undefined at the zero array, for which an error is returned.
func (c *Compressor) L2NormValueGrad(a *CompressedArray) (float64, []float64, error) {
	if err := c.checkOwned(a); err != nil {
		return 0, nil, err
	}
	ca := c.specifiedCoefficients(a)
	norm := 0.0
	for _, v := range ca {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0, nil, fmt.Errorf("core: L2 norm gradient undefined at the zero array")
	}
	grad := make([]float64, len(ca))
	for i, v := range ca {
		grad[i] = v / norm
	}
	return norm, grad, nil
}

// SquaredDistanceValueGrad returns ‖a−b‖² and its gradient 2(Ĉa−Ĉb) with
// respect to Ĉa — the loss driving compressed-domain fitting.
func (c *Compressor) SquaredDistanceValueGrad(a, b *CompressedArray) (float64, []float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, nil, err
	}
	ca := c.specifiedCoefficients(a)
	cb := c.specifiedCoefficients(b)
	v := 0.0
	grad := make([]float64, len(ca))
	for i := range ca {
		d := ca[i] - cb[i]
		v += d * d
		grad[i] = 2 * d
	}
	return v, grad, nil
}

// CosineSimilarityValueGrad returns cos(a,b) and its gradient with
// respect to Ĉa: ∂/∂Ĉa [⟨a,b⟩/(‖a‖‖b‖)] = Ĉb/(‖a‖‖b‖) − cos·Ĉa/‖a‖².
func (c *Compressor) CosineSimilarityValueGrad(a, b *CompressedArray) (float64, []float64, error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, nil, err
	}
	ca := c.specifiedCoefficients(a)
	cb := c.specifiedCoefficients(b)
	dot, na2, nb2 := 0.0, 0.0, 0.0
	for i := range ca {
		dot += ca[i] * cb[i]
		na2 += ca[i] * ca[i]
		nb2 += cb[i] * cb[i]
	}
	na, nb := math.Sqrt(na2), math.Sqrt(nb2)
	if na == 0 || nb == 0 {
		return 0, nil, fmt.Errorf("core: cosine similarity gradient undefined at a zero array")
	}
	cos := dot / (na * nb)
	grad := make([]float64, len(ca))
	for i := range ca {
		grad[i] = cb[i]/(na*nb) - cos*ca[i]/na2
	}
	return cos, grad, nil
}

// MeanValueGrad returns Mean(a) and its gradient: only the first
// coefficient of each block contributes, with weight √(∏i)/∏s.
func (c *Compressor) MeanValueGrad(a *CompressedArray) (float64, []float64, error) {
	if err := c.checkOwned(a); err != nil {
		return 0, nil, err
	}
	if c.firstKept() < 0 {
		return 0, nil, ErrFirstPruned
	}
	m, err := c.Mean(a)
	if err != nil {
		return 0, nil, err
	}
	K := len(c.keep)
	grad := make([]float64, a.F.Len())
	w := c.sqrtVol / float64(a.OriginalLen())
	for k := 0; k < a.NumBlocks(); k++ {
		grad[k*K] = w
	}
	return m, grad, nil
}

// VarianceValueGrad returns Variance(a) and its gradient. With
// Var = (Σ Ĉ² − (ΣA)²/n)/n and ΣA = √(∏i)·Σ first coefficients:
// ∂Var/∂Ĉᵢ = 2Ĉᵢ/n − [i is a first coefficient]·2·ΣA·√(∏i)/n².
func (c *Compressor) VarianceValueGrad(a *CompressedArray) (float64, []float64, error) {
	if err := c.checkOwned(a); err != nil {
		return 0, nil, err
	}
	if c.firstKept() < 0 {
		return 0, nil, ErrFirstPruned
	}
	v, err := c.Variance(a)
	if err != nil {
		return 0, nil, err
	}
	ca := c.specifiedCoefficients(a)
	n := float64(a.OriginalLen())
	sumA := 0.0
	K := len(c.keep)
	for k := 0; k < a.NumBlocks(); k++ {
		sumA += ca[k*K] * c.sqrtVol
	}
	grad := make([]float64, len(ca))
	for i, cv := range ca {
		grad[i] = 2 * cv / n
	}
	for k := 0; k < a.NumBlocks(); k++ {
		grad[k*K] -= 2 * sumA * c.sqrtVol / (n * n)
	}
	return v, grad, nil
}

// FitScale finds the scalar α minimizing ‖α·a − b‖² by gradient descent
// in the compressed domain, demonstrating the optimization-pipeline use
// the paper motivates. Returns α and the final loss. (The closed form is
// ⟨a,b⟩/⟨a,a⟩; the descent must converge to it, which the tests check.)
func (c *Compressor) FitScale(a, b *CompressedArray, steps int, learningRate float64) (alpha, loss float64, err error) {
	if err := c.checkPair(a, b); err != nil {
		return 0, 0, err
	}
	ab, aa, bb := c.k.dot3(c, a, b)
	if aa == 0 {
		return 0, 0, fmt.Errorf("core: cannot fit against the zero array")
	}
	alpha = 0
	for s := 0; s < steps; s++ {
		// d/dα ‖αA − B‖² = 2(α⟨A,A⟩ − ⟨A,B⟩).
		g := 2 * (alpha*aa - ab)
		alpha -= learningRate * g
	}
	// The expansion cancels to ~0 for perfect fits; clamp the float dust.
	loss = math.Max(alpha*alpha*aa-2*alpha*ab+bb, 0)
	return alpha, loss, nil
}
