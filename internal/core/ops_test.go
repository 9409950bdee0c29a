package core

import (
	"math"
	"testing"

	"repro/internal/scalar"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/transform"
)

// lossless64 returns a compressor whose only loss is binning at int16 —
// float64 storage so float rounding is negligible.
func lossless64(t *testing.T, blockShape ...int) *Compressor {
	s := DefaultSettings(blockShape...)
	s.FloatType = scalar.Float64
	return mustCompressor(t, s)
}

// relClose reports |a-b| ≤ tol·(1+|b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// --- Table I: operations with "none" as their source of error must agree
// with decompress-then-operate exactly (up to float64 roundoff). ---

func TestTableINegationExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(1, 16, 16)
	a := compress(t, c, x)
	na, err := c.Negate(a)
	if err != nil {
		t.Fatal(err)
	}
	want := decompress(t, c, a).Neg()
	got := decompress(t, c, na)
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("negation is not exact: L∞ = %g", d)
	}
	// Negation twice is the identity on the compressed form.
	nna, _ := c.Negate(na)
	if !nna.F.Equal(a.F) {
		t.Fatal("negate∘negate should be the identity on F")
	}
}

func TestTableIMulScalarExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(2, 16, 16)
	a := compress(t, c, x)
	for _, k := range []float64{2.5, -3, 0, 1e-3} {
		ma, err := c.MulScalar(a, k)
		if err != nil {
			t.Fatal(err)
		}
		want := decompress(t, c, a).Scale(k)
		got := decompress(t, c, ma)
		if d := got.MaxAbsDiff(want); d > 1e-12*math.Abs(k) {
			t.Errorf("×%g: L∞ = %g", k, d)
		}
	}
}

func TestTableIDotExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(3, 16, 16)
	y := randomTensor(4, 16, 16)
	a, b := compress(t, c, x), compress(t, c, y)
	got, err := c.Dot(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Dot(decompress(t, c, a), decompress(t, c, b))
	if !relClose(got, want, 1e-10) {
		t.Errorf("Dot: compressed %g vs decompressed %g", got, want)
	}
}

func TestTableIMeanExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(5, 16, 16)
	a := compress(t, c, x)
	got, err := c.Mean(a)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Mean(decompress(t, c, a))
	if !relClose(got, want, 1e-10) {
		t.Errorf("Mean: compressed %g vs decompressed %g", got, want)
	}
}

func TestTableIMeanExactWithPadding(t *testing.T) {
	// 18×10 with 4×4 blocks pads to 20×12. Binning error makes the padded
	// zeros reconstruct to small nonzero values that the compressed-space
	// sum sees but the cropped reference does not, so agreement here is up
	// to binning error (≈N/(2r+1) per padded cell), not float roundoff.
	c := lossless64(t, 4, 4)
	x := randomTensor(6, 18, 10)
	a := compress(t, c, x)
	got, err := c.Mean(a)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Mean(decompress(t, c, a))
	if !relClose(got, want, 1e-5) {
		t.Errorf("padded Mean: compressed %g vs decompressed %g", got, want)
	}
}

func TestTableICovarianceVarianceExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(7, 16, 16)
	y := randomTensor(8, 16, 16)
	a, b := compress(t, c, x), compress(t, c, y)
	dx, dy := decompress(t, c, a), decompress(t, c, b)

	cov, err := c.Covariance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := stats.Covariance(dx, dy); !relClose(cov, want, 1e-9) {
		t.Errorf("Covariance: %g vs %g", cov, want)
	}
	v, err := c.Variance(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := stats.Variance(dx); !relClose(v, want, 1e-9) {
		t.Errorf("Variance: %g vs %g", v, want)
	}
	sd, err := c.StdDev(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt(stats.Variance(dx)); !relClose(sd, want, 1e-9) {
		t.Errorf("StdDev: %g vs %g", sd, want)
	}
}

func TestTableICovarianceExactWithPadding(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(9, 13, 11)
	y := randomTensor(10, 13, 11)
	a, b := compress(t, c, x), compress(t, c, y)
	cov, err := c.Covariance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Up to binning error in the padded cells; see TestTableIMeanExactWithPadding.
	want := stats.Covariance(decompress(t, c, a), decompress(t, c, b))
	if !relClose(cov, want, 1e-5) {
		t.Errorf("padded Covariance: %g vs %g", cov, want)
	}
}

func TestTableIL2NormExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(11, 16, 16)
	a := compress(t, c, x)
	got, err := c.L2Norm(a)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.L2Norm(decompress(t, c, a))
	if !relClose(got, want, 1e-10) {
		t.Errorf("L2Norm: %g vs %g", got, want)
	}
}

func TestTableICosineSimilarityExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(12, 16, 16)
	y := randomTensor(13, 16, 16)
	a, b := compress(t, c, x), compress(t, c, y)
	got, err := c.CosineSimilarity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.CosineSimilarity(decompress(t, c, a), decompress(t, c, b))
	if !relClose(got, want, 1e-10) {
		t.Errorf("CosineSimilarity: %g vs %g", got, want)
	}
	// Self-similarity is 1.
	self, _ := c.CosineSimilarity(a, a)
	if math.Abs(self-1) > 1e-12 {
		t.Errorf("cos(a,a) = %g", self)
	}
}

func TestTableISSIMExact(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := smoothTensor(14, 16, 16).Apply(func(v float64) float64 { return (v + 3) / 6 })
	y := smoothTensor(15, 16, 16).Apply(func(v float64) float64 { return (v + 3) / 6 })
	a, b := compress(t, c, x), compress(t, c, y)
	got, err := c.StructuralSimilarity(a, b, DefaultSSIMOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := stats.SSIM(decompress(t, c, a), decompress(t, c, b), 1e-4, 9e-4)
	if !relClose(got, want, 1e-9) {
		t.Errorf("SSIM: %g vs %g", got, want)
	}
	// Self-SSIM is 1.
	self, _ := c.StructuralSimilarity(a, a, DefaultSSIMOptions())
	if math.Abs(self-1) > 1e-9 {
		t.Errorf("SSIM(a,a) = %g", self)
	}
}

// --- Table I: "rebinning" operations have bounded extra error ---

func TestAdditionRebinErrorBounded(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(16, 16, 16)
	y := randomTensor(17, 16, 16)
	a, b := compress(t, c, x), compress(t, c, y)
	sum, err := c.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := decompress(t, c, sum)
	want := decompress(t, c, a).Add(decompress(t, c, b))
	// Rebinning error per coefficient ≤ N_k/(2r+1); over a block the L∞
	// error is ≤ √(∏i)·N_k/(2r+1). Just check against a global bound.
	r := float64(scalar.Int16.Radius())
	maxN := 0.0
	for _, n := range sum.N {
		if n > maxN {
			maxN = n
		}
	}
	bound := 4.0 /*√16*/ * maxN / (2*r + 1)
	if d := got.MaxAbsDiff(want); d > bound {
		t.Errorf("Add rebin error %g exceeds bound %g", d, bound)
	}
}

func TestAdditionOfOppositeIsZero(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(18, 16, 16)
	a := compress(t, c, x)
	na, _ := c.Negate(a)
	z, err := c.Add(a, na)
	if err != nil {
		t.Fatal(err)
	}
	if got := decompress(t, c, z); got.AbsMax() != 0 {
		t.Errorf("a + (−a) decompressed to L∞ %g, want 0", got.AbsMax())
	}
}

func TestSubtract(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(19, 16, 16)
	y := randomTensor(20, 16, 16)
	a, b := compress(t, c, x), compress(t, c, y)
	diff, err := c.Subtract(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := decompress(t, c, diff)
	want := decompress(t, c, a).Sub(decompress(t, c, b))
	if d := got.MaxAbsDiff(want); d > 1e-3 {
		t.Errorf("Subtract error %g", d)
	}
}

func TestAddScalar(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(21, 16, 16)
	a := compress(t, c, x)
	for _, k := range []float64{1.5, -2, 100} {
		sa, err := c.AddScalar(a, k)
		if err != nil {
			t.Fatal(err)
		}
		got := decompress(t, c, sa)
		want := decompress(t, c, a).AddScalar(k)
		// Rebinning error scales with the new N.
		maxN := 0.0
		for _, n := range sa.N {
			if n > maxN {
				maxN = n
			}
		}
		bound := 4 * maxN / (2*32767.0 + 1)
		if d := got.MaxAbsDiff(want); d > bound {
			t.Errorf("AddScalar(%g) error %g exceeds bound %g", k, d, bound)
		}
	}
}

func TestAddScalarMeanShift(t *testing.T) {
	// Mean(A + x) = Mean(A) + x, computed wholly in compressed space.
	c := lossless64(t, 4, 4)
	x := randomTensor(22, 16, 16)
	a := compress(t, c, x)
	m0, _ := c.Mean(a)
	sa, err := c.AddScalar(a, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := c.Mean(sa)
	if math.Abs(m1-(m0+2.5)) > 1e-3 {
		t.Errorf("mean shifted by %g, want 2.5", m1-m0)
	}
}

func TestMulScalarThenL2(t *testing.T) {
	// ‖k·A‖ = |k|·‖A‖ holds exactly in compressed space.
	c := lossless64(t, 4, 4)
	x := randomTensor(23, 16, 16)
	a := compress(t, c, x)
	n0, _ := c.L2Norm(a)
	ma, _ := c.MulScalar(a, -2.5)
	n1, _ := c.L2Norm(ma)
	if !relClose(n1, 2.5*n0, 1e-12) {
		t.Errorf("‖-2.5·A‖ = %g, want %g", n1, 2.5*n0)
	}
}

// --- block-wise operations ---

func TestBlockMeansMatchReference(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(24, 16, 16)
	a := compress(t, c, x)
	got, err := c.BlockMeans(a)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.BlockMeans(decompress(t, c, a), []int{4, 4})
	if !got.SameShape(want) {
		t.Fatalf("BlockMeans shape %v vs %v", got.Shape(), want.Shape())
	}
	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Errorf("BlockMeans L∞ %g", d)
	}
}

func TestBlockVariancesMatchReference(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(25, 16, 16)
	a := compress(t, c, x)
	got, err := c.BlockVariances(a)
	if err != nil {
		t.Fatal(err)
	}
	y := decompress(t, c, a)
	yb := tensor.BlockTensor(y, []int{4, 4})
	for k := 0; k < yb.NumBlocks(); k++ {
		blk := yb.Block(k)
		mu := 0.0
		for _, v := range blk {
			mu += v
		}
		mu /= float64(len(blk))
		va := 0.0
		for _, v := range blk {
			va += (v - mu) * (v - mu)
		}
		va /= float64(len(blk))
		if !relClose(got.Data()[k], va, 1e-9) {
			t.Errorf("block %d variance %g vs %g", k, got.Data()[k], va)
		}
	}
}

// --- Wasserstein ---

func TestWassersteinIdenticalArraysIsZero(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(26, 16, 16)
	a := compress(t, c, x)
	d, err := c.WassersteinDistance(a, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("W(a,a) = %g, want 0", d)
	}
}

func TestWassersteinMatchesBlockMeanReference(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(27, 16, 16)
	y := randomTensor(28, 16, 16)
	a, b := compress(t, c, x), compress(t, c, y)
	for _, p := range []float64{1, 2, 8} {
		got, err := c.WassersteinDistance(a, b, p)
		if err != nil {
			t.Fatal(err)
		}
		ma := stats.BlockMeans(decompress(t, c, a), []int{4, 4})
		mb := stats.BlockMeans(decompress(t, c, b), []int{4, 4})
		want := stats.Wasserstein(ma.Data(), mb.Data(), p)
		if !relClose(got, want, 1e-9) {
			t.Errorf("p=%g: %g vs %g", p, got, want)
		}
	}
}

func TestWassersteinInvalidOrder(t *testing.T) {
	c := lossless64(t, 4, 4)
	a := compress(t, c, randomTensor(29, 8, 8))
	if _, err := c.WassersteinDistance(a, a, 0); err == nil {
		t.Error("p = 0 should fail")
	}
	if _, err := c.WassersteinDistance(a, a, -1); err == nil {
		t.Error("p < 0 should fail")
	}
}

func TestWassersteinBlockSizeControlsApproximation(t *testing.T) {
	// §IV-B: smaller blocks give a finer approximation; one-element blocks
	// are exact. Compare against the exact (element-wise) distance.
	x := smoothTensor(30, 32, 32)
	y := smoothTensor(31, 32, 32)
	exact := stats.Wasserstein(x.Data(), y.Data(), 2)
	var errs []float64
	for _, side := range []int{1, 4, 16} {
		s := DefaultSettings(side, side)
		s.FloatType = scalar.Float64
		s.IndexType = scalar.Int32
		c := mustCompressor(t, s)
		a, b := compress(t, c, x), compress(t, c, y)
		d, err := c.WassersteinDistance(a, b, 2)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(d-exact))
	}
	if errs[0] > 1e-9 {
		t.Errorf("1×1 blocks should be exact, error %g", errs[0])
	}
	if errs[1] >= errs[2]+1e-12 && errs[2] > 1e-9 {
		// Expect larger blocks to be at least as approximate; tolerate ties.
		t.Logf("approximation errors: %v (non-monotone but tolerated)", errs)
	}
}

// --- mask-dependent failures ---

func TestOpsRequireFirstCoefficient(t *testing.T) {
	mask := make([]bool, 16)
	mask[1] = true // keep only coefficient 1; the mean coefficient is gone
	s := DefaultSettings(4, 4)
	s.Mask = mask
	c := mustCompressor(t, s)
	a := compress(t, c, randomTensor(32, 8, 8))
	if _, err := c.Mean(a); err == nil {
		t.Error("Mean without first coefficient should fail")
	}
	if _, err := c.Covariance(a, a); err == nil {
		t.Error("Covariance without first coefficient should fail")
	}
	if _, err := c.BlockMeans(a); err == nil {
		t.Error("BlockMeans without first coefficient should fail")
	}
	if _, err := c.WassersteinDistance(a, a, 2); err == nil {
		t.Error("Wasserstein without first coefficient should fail")
	}
	if _, err := c.AddScalar(a, 1); err == nil {
		t.Error("AddScalar without first coefficient should fail")
	}
	// Dot and L2 do not need the first coefficient.
	if _, err := c.Dot(a, a); err != nil {
		t.Errorf("Dot should work without first coefficient: %v", err)
	}
}

func TestBinaryOpsValidatePairs(t *testing.T) {
	c := lossless64(t, 4, 4)
	a := compress(t, c, randomTensor(33, 8, 8))
	b := compress(t, c, randomTensor(34, 12, 8))
	if _, err := c.Add(a, b); err == nil {
		t.Error("Add with mismatched shapes should fail")
	}
	if _, err := c.Dot(a, b); err == nil {
		t.Error("Dot with mismatched shapes should fail")
	}
	other := mustCompressor(t, DefaultSettings(4, 4)) // float32 settings
	if _, err := other.Negate(a); err == nil {
		t.Error("op with foreign compressor should fail")
	}
}

// --- padding-sensitive scalar ops on non-divisible shapes ---

func TestScalarOpsOnPaddedShapes(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(35, 15, 9) // pads to 16×12
	a := compress(t, c, x)
	dx := decompress(t, c, a)
	// Agreement up to binning error in padded cells (see
	// TestTableIMeanExactWithPadding).
	if got, _ := c.Mean(a); !relClose(got, stats.Mean(dx), 1e-5) {
		t.Errorf("padded Mean: %g vs %g", got, stats.Mean(dx))
	}
	if got, _ := c.Variance(a); !relClose(got, stats.Variance(dx), 1e-5) {
		t.Errorf("padded Variance: %g vs %g", got, stats.Variance(dx))
	}
	if got, _ := c.L2Norm(a); !relClose(got, stats.L2Norm(dx), 1e-5) {
		t.Errorf("padded L2: %g vs %g", got, stats.L2Norm(dx))
	}
}

func TestIdentityTransformDisablesMeanFamily(t *testing.T) {
	// The identity transform's first basis vector is e₀, not the
	// constant, so the mean-family operations must refuse rather than
	// silently return data[0]-based nonsense.
	s := DefaultSettings(4, 4)
	s.Transform = transform.Identity
	c := mustCompressor(t, s)
	a := compress(t, c, randomTensor(120, 8, 8))
	if _, err := c.Mean(a); err == nil {
		t.Error("Mean under identity transform should fail")
	}
	if _, err := c.Variance(a); err == nil {
		t.Error("Variance under identity transform should fail")
	}
	if _, err := c.WassersteinDistance(a, a, 2); err == nil {
		t.Error("Wasserstein under identity transform should fail")
	}
	if _, err := c.AddScalar(a, 1); err == nil {
		t.Error("AddScalar under identity transform should fail")
	}
	// Orthonormality-based ops still work (identity is orthonormal).
	if _, err := c.Dot(a, a); err != nil {
		t.Errorf("Dot under identity transform should work: %v", err)
	}
	if _, err := c.L2Norm(a); err != nil {
		t.Errorf("L2Norm under identity transform should work: %v", err)
	}
}
