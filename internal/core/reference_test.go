package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

// The materialising formulas the fused kernels replaced, kept as the
// reference: recover the whole coefficient vector with Algorithm 3, then
// reduce it. The fused kernels must agree with these to the last bit —
// same per-element arithmetic, same block-major serial summation order —
// which is what makes the rewrite invisible to every answer the service
// gives.

func refCoefficients(c *Compressor, a *CompressedArray) []float64 {
	K := len(c.keep)
	f := a.indices()
	out := make([]float64, len(f))
	for k := 0; k < a.NumBlocks(); k++ {
		for i := 0; i < K; i++ {
			out[k*K+i] = c.settings.FloatType.Round(a.N[k] * float64(f[k*K+i]) / c.radius)
		}
	}
	return out
}

func refDot(c *Compressor, a, b *CompressedArray) float64 {
	ca, cb := refCoefficients(c, a), refCoefficients(c, b)
	s := 0.0
	for i := range ca {
		s += ca[i] * cb[i]
	}
	return s
}

func refBlockSums(c *Compressor, a *CompressedArray) []float64 {
	K := len(c.keep)
	sums := make([]float64, a.NumBlocks())
	f := a.indices()
	for k := range sums {
		first := c.settings.FloatType.Round(a.N[k] * float64(f[k*K]) / c.radius)
		sums[k] = first * c.sqrtVol
	}
	return sums
}

func refMean(c *Compressor, a *CompressedArray) float64 {
	return sum(refBlockSums(c, a)) / float64(a.OriginalLen())
}

func refCovariance(c *Compressor, a, b *CompressedArray) float64 {
	dot := refDot(c, a, b)
	sumA, sumB := sum(refBlockSums(c, a)), sum(refBlockSums(c, b))
	n := float64(a.OriginalLen())
	return (dot - sumA*sumB/n) / n
}

func refL2Norm(c *Compressor, a *CompressedArray) float64 { return math.Sqrt(refDot(c, a, a)) }

func refCosine(c *Compressor, a, b *CompressedArray) float64 {
	return refDot(c, a, b) / (refL2Norm(c, a) * refL2Norm(c, b))
}

func refL2Distance(c *Compressor, a, b *CompressedArray) float64 {
	aa, bb, ab := refDot(c, a, a), refDot(c, b, b), refDot(c, a, b)
	return math.Sqrt(math.Max(aa-2*ab+bb, 0))
}

func refMSE(c *Compressor, a, b *CompressedArray) float64 {
	d := refL2Distance(c, a, b)
	return d * d / float64(a.OriginalLen())
}

func refPSNR(c *Compressor, a, b *CompressedArray, peak float64) float64 {
	mse := refMSE(c, a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(peak*peak/mse)
}

// refRebin is the old rebin: N as ‖Ĉ_k‖∞, indices rounded to the nearest
// bin, both at full width.
func refRebin(c *Compressor, numBlocks int, coeffs []float64) (N []float64, F []int64) {
	K := len(c.keep)
	N, F = make([]float64, numBlocks), make([]int64, numBlocks*K)
	for k := 0; k < numBlocks; k++ {
		nk := 0.0
		for i := 0; i < K; i++ {
			if v := math.Abs(coeffs[k*K+i]); v > nk || math.IsNaN(v) {
				nk = v
			}
		}
		nk = c.settings.FloatType.Round(nk)
		N[k] = nk
		if nk == 0 {
			continue
		}
		for i := 0; i < K; i++ {
			q := math.RoundToEven(c.radius * coeffs[k*K+i] / nk)
			if math.IsNaN(q) {
				continue
			}
			F[k*K+i] = c.settings.IndexType.Clamp(int64(q))
		}
	}
	return N, F
}

func refAdd(c *Compressor, a, b *CompressedArray, sign float64) ([]float64, []int64) {
	ca, cb := refCoefficients(c, a), refCoefficients(c, b)
	for i := range ca {
		ca[i] += sign * cb[i] // −Ĉ is the coefficient of the negated index, exactly
	}
	return refRebin(c, a.NumBlocks(), ca)
}

func refAddScalar(c *Compressor, a *CompressedArray, x float64) ([]float64, []int64) {
	K := len(c.keep)
	coeffs := refCoefficients(c, a)
	for k := 0; k < a.NumBlocks(); k++ {
		coeffs[k*K] += x * c.sqrtVol
	}
	return refRebin(c, a.NumBlocks(), coeffs)
}

func refBlockCovariances(c *Compressor, a, b *CompressedArray) []float64 {
	K := len(c.keep)
	ca, cb := refCoefficients(c, a), refCoefficients(c, b)
	vol := float64(tensor.Prod(c.settings.BlockShape))
	out := make([]float64, a.NumBlocks())
	for k := range out {
		dot := 0.0
		for i := 0; i < K; i++ {
			dot += ca[k*K+i] * cb[k*K+i]
		}
		out[k] = dot/vol - (ca[k*K]/c.sqrtVol)*(cb[k*K]/c.sqrtVol)
	}
	return out
}

// sameBits compares floats as bit patterns, NaN payloads and signed
// zeros included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkScalar(t *testing.T, name string, got float64, err error, want float64) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if !sameBits(got, want) {
		t.Errorf("%s = %v (%#x), reference %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func checkVector(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: length %d, reference %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Errorf("%s[%d] = %v, reference %v", name, i, got[i], want[i])
			return
		}
	}
}

func checkArray(t *testing.T, name string, got *CompressedArray, err error, wantN []float64, wantF []int64) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	checkVector(t, name+".N", got.N, wantN)
	if got.F.Len() != len(wantF) {
		t.Errorf("%s: F length %d, reference %d", name, got.F.Len(), len(wantF))
		return
	}
	for i, w := range wantF {
		if got.F.At(i) != w {
			t.Errorf("%s.F[%d] = %d, reference %d", name, i, got.F.At(i), w)
			return
		}
	}
}

// checkAgainstReference runs every fused operation on (a, b) and compares
// it with the materialising reference.
func checkAgainstReference(t *testing.T, c *Compressor, a, b *CompressedArray) {
	t.Helper()
	got, err := c.Dot(a, b)
	checkScalar(t, "Dot", got, err, refDot(c, a, b))
	got, err = c.L2Norm(a)
	checkScalar(t, "L2Norm", got, err, refL2Norm(c, a))
	got, err = c.CosineSimilarity(a, b)
	checkScalar(t, "CosineSimilarity", got, err, refCosine(c, a, b))
	got, err = c.CosineSimilarity(a, a)
	checkScalar(t, "CosineSimilarity(a,a)", got, err, refCosine(c, a, a))
	got, err = c.L2Distance(a, b)
	checkScalar(t, "L2Distance", got, err, refL2Distance(c, a, b))
	got, err = c.MSE(a, b)
	checkScalar(t, "MSE", got, err, refMSE(c, a, b))
	got, err = c.PSNR(a, b, 2)
	checkScalar(t, "PSNR", got, err, refPSNR(c, a, b, 2))
	got, err = c.NormalizedRMSE(a, b, 3)
	checkScalar(t, "NormalizedRMSE", got, err, math.Sqrt(refMSE(c, a, b))/3)

	sumN, sumF := refAdd(c, a, b, 1)
	arr, err := c.Add(a, b)
	checkArray(t, "Add", arr, err, sumN, sumF)
	diffN, diffF := refAdd(c, a, b, -1)
	arr, err = c.Subtract(a, b)
	checkArray(t, "Subtract", arr, err, diffN, diffF)
	// Subtract is documented as Add(a, Negate(b)); the fold must not show.
	if nb, err := c.Negate(b); err != nil {
		t.Errorf("Negate: %v", err)
	} else {
		viaNegate, err := c.Add(a, nb)
		checkArray(t, "Add(a, Negate(b))", viaNegate, err, diffN, diffF)
	}

	if c.firstKept() < 0 {
		// The mean family is unavailable; both sides must say so.
		if _, err := c.Mean(a); !errors.Is(err, ErrFirstPruned) {
			t.Errorf("Mean without a first coefficient: %v", err)
		}
		return
	}
	got, err = c.Mean(a)
	checkScalar(t, "Mean", got, err, refMean(c, a))
	got, err = c.Covariance(a, b)
	checkScalar(t, "Covariance", got, err, refCovariance(c, a, b))
	got, err = c.Variance(a)
	checkScalar(t, "Variance", got, err, refCovariance(c, a, a))
	got, err = c.StdDev(a)
	checkScalar(t, "StdDev", got, err, math.Sqrt(refCovariance(c, a, a)))

	shiftN, shiftF := refAddScalar(c, a, 0.75)
	arr, err = c.AddScalar(a, 0.75)
	checkArray(t, "AddScalar", arr, err, shiftN, shiftF)

	vol := float64(tensor.Prod(c.settings.BlockShape))
	wantMeans := refBlockSums(c, a)
	for k := range wantMeans {
		wantMeans[k] /= vol
	}
	if bm, err := c.BlockMeans(a); err != nil {
		t.Errorf("BlockMeans: %v", err)
	} else {
		checkVector(t, "BlockMeans", bm.Data(), wantMeans)
	}
	if bv, err := c.BlockVariances(a); err != nil {
		t.Errorf("BlockVariances: %v", err)
	} else {
		checkVector(t, "BlockVariances", bv.Data(), refBlockCovariances(c, a, a))
	}
	if bc, err := c.BlockCovariances(a, b); err != nil {
		t.Errorf("BlockCovariances: %v", err)
	} else {
		checkVector(t, "BlockCovariances", bc.Data(), refBlockCovariances(c, a, b))
	}
}

// TestFusedKernelsMatchReference sweeps the settings space: every index
// type × float type, all four transforms, a keep=0.5 mask, shapes that do
// not divide the block shape, an all-zero block, and a float16 frame whose
// N overflowed to Inf.
func TestFusedKernelsMatchReference(t *testing.T) {
	type config struct {
		name  string
		s     Settings
		shape []int
		mk    func(seed int64, shape ...int) *tensor.Tensor
	}
	var configs []config
	add := func(name string, s Settings, shape []int, mk func(int64, ...int) *tensor.Tensor) {
		configs = append(configs, config{name, s, shape, mk})
	}
	for it := scalar.Int8; it <= scalar.Int64; it++ {
		for ft := scalar.BFloat16; ft <= scalar.Float64; ft++ {
			s := DefaultSettings(4, 4)
			s.IndexType, s.FloatType = it, ft
			add(fmt.Sprintf("%v/%v", it, ft), s, []int{16, 12}, randomTensor)
		}
	}
	for _, tr := range []transform.Kind{transform.DCT, transform.Haar, transform.Identity, transform.WalshHadamard} {
		s := DefaultSettings(8, 8)
		s.IndexType, s.Transform = scalar.Int8, tr
		add(fmt.Sprintf("transform=%v", tr), s, []int{32, 24}, smoothTensor)
	}
	for it := scalar.Int8; it <= scalar.Int16; it++ {
		s := DefaultSettings(8, 8)
		s.IndexType = it
		mask, err := KeepLowFrequency(s.BlockShape, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		s.Mask = mask
		add(fmt.Sprintf("keep=0.5/%v", it), s, []int{24, 40}, smoothTensor)
	}
	{
		s := DefaultSettings(4, 4, 4)
		s.IndexType = scalar.Int8
		add("padded-3d", s, []int{5, 9, 7}, randomTensor)
		s2 := DefaultSettings(8, 8)
		s2.IndexType = scalar.Int8
		add("padded-2d", s2, []int{13, 21}, smoothTensor)
	}
	// One block of exact zeros: N_k = 0, every index 0.
	withZeroBlock := func(seed int64, shape ...int) *tensor.Tensor {
		x := randomTensor(seed, shape...)
		for i := 0; i < 4; i++ {
			for j := 4; j < 8; j++ {
				x.Data()[x.Offset([]int{i, j})] = 0
			}
		}
		return x
	}
	{
		s := DefaultSettings(4, 4)
		s.IndexType = scalar.Int8
		add("zero-block", s, []int{8, 12}, withZeroBlock)
	}
	// Float16 overflow: one block's first coefficient exceeds 65504, so
	// its N is +Inf and every answer through it is NaN or Inf (Fig. 5).
	overflowing := func(seed int64, shape ...int) *tensor.Tensor {
		x := randomTensor(seed, shape...)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				x.Data()[x.Offset([]int{i, j})] = 60000
			}
		}
		return x
	}
	for it := scalar.Int8; it <= scalar.Int16; it++ {
		s := DefaultSettings(4, 4)
		s.FloatType, s.IndexType = scalar.Float16, it
		add(fmt.Sprintf("float16-overflow/%v", it), s, []int{8, 8}, overflowing)
	}

	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			c := mustCompressor(t, cfg.s)
			a := compress(t, c, cfg.mk(1, cfg.shape...))
			b := compress(t, c, cfg.mk(2, cfg.shape...))
			switch cfg.name {
			case "zero-block":
				if a.N[1] != 0 {
					t.Fatalf("block 1 should be all zero, N = %g", a.N[1])
				}
			case "float16-overflow/int8", "float16-overflow/int16":
				if !math.IsInf(a.N[0], 1) {
					t.Fatalf("block 0 should have overflowed, N = %g", a.N[0])
				}
				if d, _ := c.Dot(a, b); !math.IsNaN(d) && !math.IsInf(d, 0) {
					t.Fatalf("Dot through an Inf block = %g, want non-finite", d)
				}
			}
			checkAgainstReference(t, c, a, b)
			checkAgainstReference(t, c, b, a)
			// The decoded form must behave like the one Compress built.
			back, err := Decode(mustEncode(t, a))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, c, back, b)
		})
	}
}
