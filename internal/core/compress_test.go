package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

// randomTensor fills a tensor with standard normal values.
func randomTensor(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return t
}

// smoothTensor fills a tensor with a smooth multiscale field, which
// compresses well (small high-frequency coefficients).
func smoothTensor(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	p1, p2, p3 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
	t := tensor.New(shape...)
	idx := make([]int, len(shape))
	i := 0
	for {
		v := 0.0
		for d, c := range idx {
			x := float64(c) / float64(shape[d])
			v += math.Sin(2*math.Pi*x+p1) + 0.5*math.Cos(4*math.Pi*x+p2) + 0.25*math.Sin(6*math.Pi*x+p3)
		}
		t.Data()[i] = v
		i++
		if !tensor.NextIndex(idx, shape) {
			break
		}
	}
	return t
}

func mustCompressor(t *testing.T, s Settings) *Compressor {
	t.Helper()
	c, err := NewCompressor(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func compress(t *testing.T, c *Compressor, x *tensor.Tensor) *CompressedArray {
	t.Helper()
	a, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func decompress(t *testing.T, c *Compressor, a *CompressedArray) *tensor.Tensor {
	t.Helper()
	x, err := c.Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestSettingsValidate(t *testing.T) {
	good := DefaultSettings(4, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Settings{
		{BlockShape: []int{3, 4}, FloatType: scalar.Float32, IndexType: scalar.Int16},
		{BlockShape: nil, FloatType: scalar.Float32, IndexType: scalar.Int16},
		{BlockShape: []int{4}, FloatType: scalar.FloatType(9), IndexType: scalar.Int16},
		{BlockShape: []int{4}, FloatType: scalar.Float32, IndexType: scalar.IndexType(9)},
		{BlockShape: []int{4}, FloatType: scalar.Float32, IndexType: scalar.Int16, Transform: transform.Kind(7)},
		{BlockShape: []int{4}, FloatType: scalar.Float32, IndexType: scalar.Int16, Mask: []bool{true}},
		{BlockShape: []int{4}, FloatType: scalar.Float32, IndexType: scalar.Int16, Mask: []bool{false, false, false, false}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad settings %d should fail validation", i)
		}
		if _, err := NewCompressor(s); err == nil {
			t.Errorf("NewCompressor with bad settings %d should fail", i)
		}
	}
}

func TestCompressDecompressShapes(t *testing.T) {
	shapes := [][]int{
		{16, 16}, {17, 9}, {64}, {8, 8, 8}, {5, 12, 7}, {3, 224, 6},
	}
	blocks := [][]int{
		{4, 4}, {4, 4}, {8}, {4, 4, 4}, {4, 4, 4}, {4, 8, 2},
	}
	for i, shape := range shapes {
		c := mustCompressor(t, DefaultSettings(blocks[i]...))
		x := smoothTensor(int64(i), shape...)
		a := compress(t, c, x)
		y := decompress(t, c, a)
		if !y.SameShape(x) {
			t.Errorf("shape %v: decompressed shape %v", shape, y.Shape())
			continue
		}
		// Smooth data with int16 bins must reconstruct closely.
		rng := x.Max() - x.Min()
		if err := x.MaxAbsDiff(y); err > 0.02*rng {
			t.Errorf("shape %v: L∞ error %g too large (range %g)", shape, err, rng)
		}
	}
}

func TestCompressDimsMismatch(t *testing.T) {
	c := mustCompressor(t, DefaultSettings(4, 4))
	if _, err := c.Compress(tensor.New(8)); err == nil {
		t.Error("compressing 1-D tensor with 2-D block shape should fail")
	}
}

func TestDecompressForeignArrayFails(t *testing.T) {
	c1 := mustCompressor(t, DefaultSettings(4, 4))
	s2 := DefaultSettings(4, 4)
	s2.IndexType = scalar.Int8
	c2 := mustCompressor(t, s2)
	a := compress(t, c1, smoothTensor(1, 16, 16))
	if _, err := c2.Decompress(a); err == nil {
		t.Error("decompressing with mismatched settings should fail")
	}
}

func TestBinningErrorBound(t *testing.T) {
	// §IV-D: the maximum coefficient error per block is N_k/(2r+1), and by
	// orthonormality the block L2 error equals the coefficient L2 error:
	// ≤ √(∏i)·N_k/(2r+1). Check the per-block L2 bound.
	s := DefaultSettings(4, 4)
	s.IndexType = scalar.Int8
	s.FloatType = scalar.Float64
	c := mustCompressor(t, s)
	x := randomTensor(2, 16, 16)
	a := compress(t, c, x)
	y := decompress(t, c, a)

	xb := tensor.BlockTensor(x, s.BlockShape)
	yb := tensor.BlockTensor(y, s.BlockShape)
	r := float64(scalar.Int8.Radius())
	for k := 0; k < xb.NumBlocks(); k++ {
		l2 := 0.0
		for i, v := range xb.Block(k) {
			d := v - yb.Block(k)[i]
			l2 += d * d
		}
		l2 = math.Sqrt(l2)
		// Bin width is 2N/(2r+1); max per-coefficient error is half that.
		// (Rounding N to the float type can only change it negligibly at
		// Float64.)
		bound := math.Sqrt(16) * a.N[k] / (2*r + 1)
		if l2 > bound*1.0001 {
			t.Errorf("block %d: L2 error %g exceeds bound %g", k, l2, bound)
		}
	}
}

func TestZeroTensor(t *testing.T) {
	c := mustCompressor(t, DefaultSettings(4, 4))
	x := tensor.New(8, 8)
	a := compress(t, c, x)
	for _, n := range a.N {
		if n != 0 {
			t.Errorf("N of zero tensor = %g", n)
		}
	}
	y := decompress(t, c, a)
	if y.AbsMax() != 0 {
		t.Error("zero tensor should decompress to zeros")
	}
	// Scalar ops on the zero array must not divide by zero.
	if v, err := c.L2Norm(a); err != nil || v != 0 {
		t.Errorf("L2Norm(0) = %g, %v", v, err)
	}
	if v, err := c.Mean(a); err != nil || v != 0 {
		t.Errorf("Mean(0) = %g, %v", v, err)
	}
}

func TestConstantTensor(t *testing.T) {
	// A constant array has all energy in first coefficients; binning is
	// exact for the single non-zero coefficient.
	c := mustCompressor(t, DefaultSettings(4, 4))
	x := tensor.New(16, 16).Fill(3.25) // exactly representable
	a := compress(t, c, x)
	y := decompress(t, c, a)
	if d := x.MaxAbsDiff(y); d > 1e-6 {
		t.Errorf("constant tensor round trip error %g", d)
	}
	if m, _ := c.Mean(a); math.Abs(m-3.25) > 1e-6 {
		t.Errorf("Mean = %g, want 3.25", m)
	}
	if v, _ := c.Variance(a); math.Abs(v) > 1e-6 {
		t.Errorf("Variance = %g, want 0", v)
	}
}

func TestFloat16OverflowProducesNonFinite(t *testing.T) {
	// Coefficients exceeding 65504 overflow float16 → Inf N (the Fig. 5
	// NaN phenomenon). A 4×4 block of 65504s has first coefficient
	// 65504·4 = 262016 > 65504.
	s := DefaultSettings(4, 4)
	s.FloatType = scalar.Float16
	c := mustCompressor(t, s)
	x := tensor.New(4, 4).Fill(60000)
	a := compress(t, c, x)
	if !math.IsInf(a.N[0], 1) {
		t.Fatalf("N = %g, want +Inf from float16 overflow", a.N[0])
	}
	y := decompress(t, c, a)
	hasNonFinite := false
	for _, v := range y.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			hasNonFinite = true
		}
	}
	if !hasNonFinite {
		t.Error("decompressed overflowed array should contain non-finite values")
	}
	// bfloat16 has float32's exponent range: same data stays finite.
	s.FloatType = scalar.BFloat16
	c2 := mustCompressor(t, s)
	a2 := compress(t, c2, x)
	if math.IsInf(a2.N[0], 0) || math.IsNaN(a2.N[0]) {
		t.Error("bfloat16 N should stay finite for 60000-valued data")
	}
}

func TestIndexTypeGranularity(t *testing.T) {
	// int16 must reconstruct random data more accurately than int8
	// (more bins → finer rounding, §III-A(d)).
	x := randomTensor(5, 32, 32)
	var errs [2]float64
	for i, it := range []scalar.IndexType{scalar.Int8, scalar.Int16} {
		s := DefaultSettings(8, 8)
		s.IndexType = it
		s.FloatType = scalar.Float64
		c := mustCompressor(t, s)
		errs[i] = x.MaxAbsDiff(decompress(t, c, compress(t, c, x)))
	}
	if errs[1] >= errs[0] {
		t.Errorf("int16 error %g should be < int8 error %g", errs[1], errs[0])
	}
}

func TestPruningActsAsLowPass(t *testing.T) {
	// Pruning high frequencies of a smooth array loses little; of a noisy
	// array it loses a lot.
	mask, err := KeepLowFrequency([]int{8, 8}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSettings(8, 8)
	s.Mask = mask
	s.FloatType = scalar.Float64
	c := mustCompressor(t, s)

	smooth := smoothTensor(1, 32, 32)
	noisy := randomTensor(1, 32, 32)
	smoothErr := smooth.RMSE(decompress(t, c, compress(t, c, smooth)))
	noisyErr := noisy.RMSE(decompress(t, c, compress(t, c, noisy)))
	if smoothErr >= noisyErr {
		t.Errorf("smooth RMSE %g should be < noisy RMSE %g under low-pass pruning", smoothErr, noisyErr)
	}
}

func TestPrunedCoefficientsAreZeroOnDecompress(t *testing.T) {
	// With only the first coefficient kept, each decompressed block must
	// be constant (equal to its mean).
	mask := make([]bool, 16)
	mask[0] = true
	s := DefaultSettings(4, 4)
	s.Mask = mask
	c := mustCompressor(t, s)
	x := randomTensor(3, 8, 8)
	y := decompress(t, c, compress(t, c, x))
	yb := tensor.BlockTensor(y, []int{4, 4})
	for k := 0; k < yb.NumBlocks(); k++ {
		blk := yb.Block(k)
		for _, v := range blk {
			if math.Abs(v-blk[0]) > 1e-6 {
				t.Fatalf("block %d not constant after keep-first-only pruning", k)
			}
		}
	}
}

func TestHaarTransformRoundTrip(t *testing.T) {
	s := DefaultSettings(8, 8)
	s.Transform = transform.Haar
	s.FloatType = scalar.Float64
	c := mustCompressor(t, s)
	x := smoothTensor(9, 32, 32)
	y := decompress(t, c, compress(t, c, x))
	rng := x.Max() - x.Min()
	if e := x.MaxAbsDiff(y); e > 0.02*rng {
		t.Errorf("Haar round trip error %g", e)
	}
}

func TestCompressorAccessors(t *testing.T) {
	mask, _ := KeepLowFrequency([]int{4, 4}, 0.5)
	s := DefaultSettings(4, 4)
	s.Mask = mask
	c := mustCompressor(t, s)
	if len(c.keep) != 8 {
		t.Errorf("kept %d coefficients, want 8", len(c.keep))
	}
	got := c.Settings()
	got.BlockShape[0] = 99
	if c.Settings().BlockShape[0] == 99 {
		t.Error("Settings() must return a defensive copy")
	}
}

func TestCompressedArrayAccessors(t *testing.T) {
	c := mustCompressor(t, DefaultSettings(4, 4))
	a := compress(t, c, smoothTensor(1, 10, 6))
	if !tensor.EqualShape(a.Blocks, []int{3, 2}) {
		t.Errorf("Blocks = %v", a.Blocks)
	}
	if a.NumBlocks() != 6 || a.Kept() != 16 {
		t.Errorf("NumBlocks=%d Kept=%d", a.NumBlocks(), a.Kept())
	}
	if a.OriginalLen() != 60 {
		t.Errorf("OriginalLen = %d", a.OriginalLen())
	}
	cl := a.Clone()
	cl.F.i16[0] = 99
	cl.N[0] = 99
	if a.F.At(0) == 99 || a.N[0] == 99 {
		t.Error("Clone must deep-copy")
	}
}

func TestDecompressionDeterministic(t *testing.T) {
	// Parallel decompression must be deterministic.
	c := mustCompressor(t, DefaultSettings(4, 4))
	x := randomTensor(1, 64, 64)
	a := compress(t, c, x)
	y1 := decompress(t, c, a)
	y2 := decompress(t, c, a)
	if y1.MaxAbsDiff(y2) != 0 {
		t.Error("decompression not deterministic")
	}
	a2 := compress(t, c, x)
	if !a.F.Equal(a2.F) {
		t.Fatal("compression not deterministic")
	}
}
