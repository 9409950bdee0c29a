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

// Property-based tests (testing/quick) over the compressed-space algebra.

func randomArrayPair(seed int64) (*Compressor, *CompressedArray, *CompressedArray, error) {
	rng := rand.New(rand.NewSource(seed))
	side := 8 * (1 + rng.Intn(3))
	s := DefaultSettings(4, 4)
	s.FloatType = scalar.Float64
	c, err := NewCompressor(s)
	if err != nil {
		return nil, nil, nil, err
	}
	mk := func() (*CompressedArray, error) {
		x := tensor.New(side, side)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64() * 10
		}
		return c.Compress(x)
	}
	a, err := mk()
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := mk()
	if err != nil {
		return nil, nil, nil, err
	}
	return c, a, b, nil
}

// Compression is idempotent on its own output: compressing a decompressed
// array reproduces the same compressed form (every decompressed value sits
// exactly at a bin center).
func TestCompressIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, a, _, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		y, err := c.Decompress(a)
		if err != nil {
			return false
		}
		a2, err := c.Compress(y)
		if err != nil {
			return false
		}
		y2, err := c.Decompress(a2)
		if err != nil {
			return false
		}
		// Values may not be bit-identical in the compressed form (N can
		// shift slightly), but the reconstruction must be stable to well
		// under one bin width.
		maxN := 0.0
		for _, n := range a.N {
			if n > maxN {
				maxN = n
			}
		}
		binHalf := maxN / (2*32767.0 + 1)
		return y.MaxAbsDiff(y2) <= 4*binHalf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Negation is an involution and distributes over decompression.
func TestNegationInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, a, _, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		na, err := c.Negate(a)
		if err != nil {
			return false
		}
		nna, err := c.Negate(na)
		if err != nil {
			return false
		}
		return a.F.Equal(nna.F)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// MulScalar composes multiplicatively: (k1·(k2·a)) = (k1·k2)·a on N.
func TestMulScalarCompositionProperty(t *testing.T) {
	f := func(seed int64, k1, k2 float64) bool {
		if math.IsNaN(k1) || math.IsInf(k1, 0) || math.IsNaN(k2) || math.IsInf(k2, 0) {
			return true
		}
		k1 = math.Mod(k1, 8)
		k2 = math.Mod(k2, 8)
		c, a, _, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		m1, err := c.MulScalar(a, k1)
		if err != nil {
			return false
		}
		m12, err := c.MulScalar(m1, k2)
		if err != nil {
			return false
		}
		direct, err := c.MulScalar(a, k1*k2)
		if err != nil {
			return false
		}
		for k := range direct.N {
			// Two roundings vs one: allow one ulp-ish slack.
			if !relClose(m12.N[k], direct.N[k], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Dot is bilinear under scalar multiplication: Dot(k·a, b) = k·Dot(a, b).
func TestDotScalingProperty(t *testing.T) {
	f := func(seed int64, k float64) bool {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return true
		}
		k = math.Mod(k, 16)
		c, a, b, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		d0, err := c.Dot(a, b)
		if err != nil {
			return false
		}
		ka, err := c.MulScalar(a, k)
		if err != nil {
			return false
		}
		d1, err := c.Dot(ka, b)
		if err != nil {
			return false
		}
		return relClose(d1, k*d0, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Cauchy–Schwarz holds in compressed space: |Dot| ≤ ‖a‖·‖b‖, and cosine
// similarity lies in [−1, 1].
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, a, b, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		d, _ := c.Dot(a, b)
		na, _ := c.L2Norm(a)
		nb, _ := c.L2Norm(b)
		if math.Abs(d) > na*nb*(1+1e-12) {
			return false
		}
		cs, _ := c.CosineSimilarity(a, b)
		return cs >= -1-1e-12 && cs <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Variance is non-negative and Var(k·a) = k²·Var(a).
func TestVarianceScalingProperty(t *testing.T) {
	f := func(seed int64, k float64) bool {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return true
		}
		k = math.Mod(k, 8)
		c, a, _, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		v0, err := c.Variance(a)
		if err != nil || v0 < -1e-12 {
			return false
		}
		ka, err := c.MulScalar(a, k)
		if err != nil {
			return false
		}
		v1, err := c.Variance(ka)
		if err != nil {
			return false
		}
		return relClose(v1, k*k*v0, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Addition commutes: decompress(a+b) == decompress(b+a).
func TestAdditionCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, a, b, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		ab, err := c.Add(a, b)
		if err != nil {
			return false
		}
		ba, err := c.Add(b, a)
		if err != nil {
			return false
		}
		x, err := c.Decompress(ab)
		if err != nil {
			return false
		}
		y, err := c.Decompress(ba)
		if err != nil {
			return false
		}
		return x.MaxAbsDiff(y) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Wasserstein distance is symmetric and satisfies the identity axiom.
func TestWassersteinMetricAxiomsProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, a, b, err := randomArrayPair(seed)
		if err != nil {
			return false
		}
		dab, err := c.WassersteinDistance(a, b, 2)
		if err != nil {
			return false
		}
		dba, err := c.WassersteinDistance(b, a, 2)
		if err != nil {
			return false
		}
		daa, err := c.WassersteinDistance(a, a, 2)
		if err != nil {
			return false
		}
		return dab == dba && daa == 0 && dab >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Serialization round-trips bit-exactly for random arrays and settings.
func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := DefaultSettings(1<<(1+rng.Intn(3)), 1<<(1+rng.Intn(3)))
		s.FloatType = scalar.FloatType(rng.Intn(4))
		s.IndexType = scalar.IndexType(rng.Intn(3))
		c, err := NewCompressor(s)
		if err != nil {
			return false
		}
		x := tensor.New(4+rng.Intn(30), 4+rng.Intn(30))
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		a, err := c.Compress(x)
		if err != nil {
			return false
		}
		data, err := Encode(a)
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		if !slices.Equal(back.indices(), a.indices()) {
			return false
		}
		for i := range a.N {
			if back.N[i] != a.N[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The L∞ reconstruction error never exceeds the §IV-D loose bound
// ‖C_k‖∞·∏i... but the tight per-coefficient bound is what binning
// guarantees: check reconstruction against √(∏i)·N_k/(2r+1) per block.
func TestReconstructionErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := DefaultSettings(4, 4)
		s.FloatType = scalar.Float64
		s.IndexType = scalar.Int8
		c, err := NewCompressor(s)
		if err != nil {
			return false
		}
		x := tensor.New(16, 16)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4))-2)
		}
		a, err := c.Compress(x)
		if err != nil {
			return false
		}
		y, err := c.Decompress(a)
		if err != nil {
			return false
		}
		xb := tensor.BlockTensor(x, s.BlockShape)
		yb := tensor.BlockTensor(y, s.BlockShape)
		r := 127.0
		for k := 0; k < xb.NumBlocks(); k++ {
			worst := 0.0
			for i, v := range xb.Block(k) {
				if d := math.Abs(v - yb.Block(k)[i]); d > worst {
					worst = d
				}
			}
			if worst > 4*a.N[k]/(2*r+1)*1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
