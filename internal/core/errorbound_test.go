package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/scalar"
	"repro/internal/tensor"
)

func TestErrorBoundsHold(t *testing.T) {
	for _, it := range []scalar.IndexType{scalar.Int8, scalar.Int16} {
		s := DefaultSettings(4, 4)
		s.FloatType = scalar.Float64
		s.IndexType = it
		c := mustCompressor(t, s)
		x := randomTensor(70, 32, 32)
		a := compress(t, c, x)
		linf, blockL2, bounds, err := c.VerifyReconstruction(x, a)
		if err != nil {
			t.Fatal(err)
		}
		// The per-block L2 bound is the guaranteed one.
		if blockL2 > bounds.BlockL2*1.0001 {
			t.Errorf("%v: measured block L2 %g exceeds bound %g", it, blockL2, bounds.BlockL2)
		}
		// The loose L∞ bound certainly holds.
		if linf > bounds.LooseLinf {
			t.Errorf("%v: measured L∞ %g exceeds loose bound %g", it, linf, bounds.LooseLinf)
		}
		// The bounds tighten as the index type widens.
		if it == scalar.Int16 && bounds.BinningLinfPerCoeff > 1e-3 {
			t.Errorf("int16 per-coefficient bound %g suspiciously large", bounds.BinningLinfPerCoeff)
		}
	}
}

func TestErrorBoundsValidation(t *testing.T) {
	c := mustCompressor(t, DefaultSettings(4, 4))
	other := DefaultSettings(4, 4)
	other.IndexType = scalar.Int8
	c2 := mustCompressor(t, other)
	a := compress(t, c2, randomTensor(71, 8, 8))
	if _, err := c.ErrorBoundsFor(a); err == nil {
		t.Error("foreign array should be rejected")
	}
	if _, _, _, err := c.VerifyReconstruction(tensor.New(8, 8), a); err == nil {
		t.Error("VerifyReconstruction on foreign array should fail")
	}
}

func TestBlockCovariances(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(72, 16, 16)
	y := randomTensor(73, 16, 16)
	a, b := compress(t, c, x), compress(t, c, y)
	got, err := c.BlockCovariances(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dx, dy := decompress(t, c, a), decompress(t, c, b)
	xb := tensor.BlockTensor(dx, []int{4, 4})
	yb := tensor.BlockTensor(dy, []int{4, 4})
	for k := 0; k < xb.NumBlocks(); k++ {
		bx, by := xb.Block(k), yb.Block(k)
		mx, my := 0.0, 0.0
		for i := range bx {
			mx += bx[i]
			my += by[i]
		}
		mx /= float64(len(bx))
		my /= float64(len(by))
		cov := 0.0
		for i := range bx {
			cov += (bx[i] - mx) * (by[i] - my)
		}
		cov /= float64(len(bx))
		if !relClose(got.Data()[k], cov, 1e-9) {
			t.Errorf("block %d: covariance %g vs %g", k, got.Data()[k], cov)
		}
	}
	// Block covariance of an array with itself equals block variance.
	bv, _ := c.BlockVariances(a)
	bc, _ := c.BlockCovariances(a, a)
	if bv.MaxAbsDiff(bc) > 1e-12 {
		t.Error("BlockCovariances(a,a) != BlockVariances(a)")
	}
}

func TestBlockStdDevs(t *testing.T) {
	c := lossless64(t, 4, 4)
	a := compress(t, c, randomTensor(74, 16, 16))
	sd, err := c.BlockStdDevs(a)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.BlockVariances(a)
	for k, s := range sd.Data() {
		if !relClose(s*s, math.Max(v.Data()[k], 0), 1e-9) {
			t.Errorf("block %d: std² %g vs var %g", k, s*s, v.Data()[k])
		}
		if s < 0 {
			t.Error("negative std dev")
		}
	}
}

func TestBlockOpsRequireFirstCoefficient(t *testing.T) {
	mask := make([]bool, 16)
	mask[3] = true
	s := DefaultSettings(4, 4)
	s.Mask = mask
	c := mustCompressor(t, s)
	a := compress(t, c, randomTensor(75, 8, 8))
	if _, err := c.BlockCovariances(a, a); err == nil {
		t.Error("BlockCovariances without first coefficient should fail")
	}
	if _, err := c.BlockStdDevs(a); err == nil {
		t.Error("BlockStdDevs without first coefficient should fail")
	}
}

// Property: the per-block L2 bound holds for arbitrary data and index
// types (no pruning).
func TestErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := DefaultSettings(4, 4)
		s.FloatType = scalar.Float64
		s.IndexType = []scalar.IndexType{scalar.Int8, scalar.Int16}[rng.Intn(2)]
		c, err := NewCompressor(s)
		if err != nil {
			return false
		}
		x := tensor.New(16, 16)
		amp := math.Pow(10, float64(rng.Intn(8))-4)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64() * amp
		}
		a, err := c.Compress(x)
		if err != nil {
			return false
		}
		_, blockL2, bounds, err := c.VerifyReconstruction(x, a)
		if err != nil {
			return false
		}
		return blockL2 <= bounds.BlockL2*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Degenerate and adversarial inputs must not panic anywhere in the
// pipeline (failure injection).
func TestNonFiniteInputsDoNotPanic(t *testing.T) {
	c := mustCompressor(t, DefaultSettings(4, 4))
	cases := map[string]float64{
		"nan":  math.NaN(),
		"+inf": math.Inf(1),
		"-inf": math.Inf(-1),
	}
	for name, v := range cases {
		x := tensor.New(8, 8).Fill(1)
		x.Set(v, 3, 3)
		a, err := c.Compress(x)
		if err != nil {
			t.Fatalf("%s: compress error %v", name, err)
		}
		if _, err := c.Decompress(a); err != nil {
			t.Fatalf("%s: decompress error %v", name, err)
		}
		// Scalar ops may return NaN but must not panic.
		_, _ = c.Mean(a)
		_, _ = c.Variance(a)
		_, _ = c.L2Norm(a)
		if _, err := Encode(a); err != nil {
			t.Fatalf("%s: encode error %v", name, err)
		}
	}
}

// Random single-bit corruptions of a valid stream either fail to decode
// or decode into something structurally consistent — never panic.
func TestDecodeCorruptionRobustnessProperty(t *testing.T) {
	c := mustCompressor(t, DefaultSettings(4, 4))
	a := compress(t, c, smoothTensor(80, 16, 16))
	blob, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		bad := append([]byte(nil), blob...)
		for flips := 0; flips <= rng.Intn(4); flips++ {
			i := rng.Intn(len(bad))
			bad[i] ^= 1 << uint(rng.Intn(8))
		}
		dec, err := Decode(bad)
		if err != nil {
			return true // rejection is fine
		}
		// If it decoded, the structure must be internally consistent.
		if dec.NumBlocks() <= 0 {
			return false
		}
		if dec.Kept() < 0 || dec.Kept() > tensor.Prod(dec.Settings.BlockShape) {
			return false
		}
		n, ok := runLength(dec.occ, dec.NumBlocks(), dec.Kept())
		return ok && dec.F.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Arbitrary-dimensional support (the paper's claim): 1-D through 5-D.
func TestHighDimensionalArrays(t *testing.T) {
	shapes := [][]int{
		{64},
		{16, 16},
		{8, 8, 8},
		{4, 6, 5, 8},
		{3, 4, 4, 5, 4},
	}
	blocks := [][]int{
		{8},
		{4, 4},
		{4, 4, 4},
		{2, 2, 2, 4},
		{2, 2, 2, 2, 2},
	}
	for i, shape := range shapes {
		s := DefaultSettings(blocks[i]...)
		s.FloatType = scalar.Float64
		c := mustCompressor(t, s)
		x := smoothTensor(int64(90+i), shape...)
		a := compress(t, c, x)
		y := decompress(t, c, a)
		rng := x.Max() - x.Min()
		if e := x.MaxAbsDiff(y); e > 0.05*rng {
			t.Errorf("%d-D: reconstruction error %g", len(shape), e)
		}
		// Exact ops stay exact in any dimensionality.
		m, err := c.Mean(a)
		if err != nil {
			t.Fatal(err)
		}
		if want := y.Mean(); !relClose(m, want, 1e-9) {
			t.Errorf("%d-D: mean %g vs %g", len(shape), m, want)
		}
		// Serialization round trip.
		blob, err := Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back.indices(), a.indices()) {
			t.Errorf("%d-D: serialization changed F", len(shape))
		}
	}
}
