package zfpsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func gradientTensor(shape ...int) *tensor.Tensor {
	// The paper's §IV-E workload: elements 0..1 in a constant gradient
	// from the lowest indices to the highest.
	t := tensor.New(shape...)
	idx := make([]int, len(shape))
	sumMax := 0
	for _, s := range shape {
		sumMax += s - 1
	}
	if sumMax == 0 {
		sumMax = 1
	}
	i := 0
	for {
		s := 0
		for _, c := range idx {
			s += c
		}
		t.Data()[i] = float64(s) / float64(sumMax)
		i++
		if !tensor.NextIndex(idx, shape) {
			break
		}
	}
	return t
}

func TestSettingsValidation(t *testing.T) {
	x := tensor.New(8, 8)
	if _, err := Compress(x, Settings{BitsPerValue: 0}); err == nil {
		t.Error("0 bits per value should fail")
	}
	if _, err := Compress(x, Settings{BitsPerValue: 99}); err == nil {
		t.Error("99 bits per value should fail")
	}
	if _, err := Compress(tensor.New(2, 2, 2, 2), Settings{BitsPerValue: 16}); err == nil {
		t.Error("4-D arrays should fail")
	}
	if _, err := Compress(x, Settings{BitsPerValue: 1}); err == nil {
		t.Error("rate below the header size should fail")
	}
}

func TestPayloadSizeIsFixedRate(t *testing.T) {
	for _, bpv := range []int{8, 16, 32} {
		x := gradientTensor(64, 64)
		a, err := Compress(x, Settings{BitsPerValue: bpv})
		if err != nil {
			t.Fatal(err)
		}
		blocks := 16 * 16
		wantBits := blocks * bpv * 16
		if got := len(a.Payload) * 8; got < wantBits || got > wantBits+8 {
			t.Errorf("bpv %d: payload %d bits, want %d (±byte padding)", bpv, got, wantBits)
		}
	}
}

func TestRoundTripAccuracyByRate(t *testing.T) {
	// Higher rates must give lower error; 32 bpv should be tight.
	x := gradientTensor(32, 32)
	var errs []float64
	for _, bpv := range []int{8, 16, 32} {
		a, err := Compress(x, Settings{BitsPerValue: bpv})
		if err != nil {
			t.Fatal(err)
		}
		y, err := Decompress(a)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, x.MaxAbsDiff(y))
	}
	if !(errs[0] >= errs[1] && errs[1] >= errs[2]) {
		t.Errorf("errors not monotone in rate: %v", errs)
	}
	if errs[2] > 1e-7 {
		t.Errorf("32 bpv error %g too large", errs[2])
	}
	if errs[0] > 0.05 {
		t.Errorf("8 bpv error %g too large for gradient data", errs[0])
	}
}

func TestRoundTrip1D3D(t *testing.T) {
	shapes := [][]int{{64}, {16, 16}, {8, 8, 8}, {5, 9, 13}}
	for _, shape := range shapes {
		x := gradientTensor(shape...)
		a, err := Compress(x, Settings{BitsPerValue: 32})
		if err != nil {
			t.Fatal(err)
		}
		y, err := Decompress(a)
		if err != nil {
			t.Fatal(err)
		}
		if !y.SameShape(x) {
			t.Fatalf("shape %v → %v", shape, y.Shape())
		}
		if e := x.MaxAbsDiff(y); e > 1e-7 {
			t.Errorf("shape %v: error %g", shape, e)
		}
	}
}

func TestZeroBlocks(t *testing.T) {
	x := tensor.New(8, 8)
	a, err := Compress(x, Settings{BitsPerValue: 8})
	if err != nil {
		t.Fatal(err)
	}
	y, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if y.AbsMax() != 0 {
		t.Error("zero array must round trip to zeros")
	}
}

func TestWideDynamicRangePerBlock(t *testing.T) {
	// Block floating point shares the exponent per block: values tiny
	// relative to their block's max lose precision but stay bounded.
	x := tensor.New(4, 4)
	x.Data()[0] = 1e6
	x.Data()[15] = 1e-6
	a, err := Compress(x, Settings{BitsPerValue: 32})
	if err != nil {
		t.Fatal(err)
	}
	y, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y.Data()[0]-1e6) > 1 {
		t.Errorf("big value reconstructed as %g", y.Data()[0])
	}
	// The tiny value may be quantized away, but must not explode.
	if math.Abs(y.Data()[15]) > 1 {
		t.Errorf("small value reconstructed as %g", y.Data()[15])
	}
}

func TestNegativeValues(t *testing.T) {
	x := tensor.New(4, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i)*0.5 - 4
	}
	a, err := Compress(x, Settings{BitsPerValue: 32})
	if err != nil {
		t.Fatal(err)
	}
	y, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if e := x.MaxAbsDiff(y); e > 1e-6 {
		t.Errorf("negative-value round trip error %g", e)
	}
}

func TestDecompressTruncatedPayload(t *testing.T) {
	x := gradientTensor(16, 16)
	a, _ := Compress(x, Settings{BitsPerValue: 16})
	a.Payload = a.Payload[:4]
	if _, err := Decompress(a); err == nil {
		t.Error("truncated payload should fail")
	}
	a.Shape = []int{2, 2, 2, 2}
	if _, err := Decompress(a); err == nil {
		t.Error("bad shape should fail")
	}
}

func TestLiftingRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, shape := range [][]int{{4}, {4, 4}, {4, 4, 4}} {
			vol := tensor.Prod(shape)
			v := make([]int64, vol)
			orig := make([]int64, vol)
			for i := range v {
				v[i] = int64(rng.Intn(1<<40) - 1<<39)
				orig[i] = v[i]
			}
			forwardLift(v, shape)
			inverseLift(v, shape)
			for i := range v {
				if v[i] != orig[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLiftingDecorrelatesConstant(t *testing.T) {
	// A constant line must concentrate in the LL slot.
	v := []int64{100, 100, 100, 100}
	forwardLift(v, []int{4})
	if v[1] != 0 || v[2] != 0 || v[3] != 0 {
		t.Errorf("constant line lifted to %v, want zeros beyond slot 0", v)
	}
	if v[0] != 100 {
		t.Errorf("LL = %d, want 100", v[0])
	}
}

// errorBound16 is the worst-case round-trip error of a 16 bpv 4×4 block
// of nonnegative values whose biggest magnitude m has 2^(e−1) ≤ m < 2^e,
// derived from what the block budget keeps after the exponent:
//
//   - 16·16 = 256 bits less the 22-bit header leave 234 = 14·16 + 10 bits
//     of bit planes, so coefficients 0–9 keep the top 15 planes and
//     10–15 the top 14.
//   - Values quantize to integers in [0, 2^44]; the lift along axis 0
//     keeps them within ±2^44 and along axis 1 within ±2^45, whose
//     negabinary fits 47 digits. So top ≤ 47, and with K = top−14 ≤ 33
//     the last six coefficients lose K planes, the first ten K−1.
//   - Dropping k negabinary digits changes a value by under (2/3)·2^k.
//   - The inverse lift weighs the coefficients of one line by
//     (1, ½, ½, 0) or (1, ½, 0, ½) per output, so an output's error is at
//     most (2/3)·2^(K−1)·(4 + 1) = (5/3)·2^K: the 4 is the weights'
//     product sum, the 1 the most weight that falls on the six
//     coefficients losing a plane more.
//   - Each floor in the lift adds at most ½ a unit, 3 units over both
//     axes, and quantization ½ more.
//
// One integer unit is 2^(e−44) in value.
func errorBound16(e int) float64 {
	return (5.0/3*math.Ldexp(1, 33) + 3.5) * math.Ldexp(1, e-44)
}

func TestErrorBoundedByRateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(16, 16)
		amp := math.Pow(10, float64(rng.Intn(6))-3)
		for i := range x.Data() {
			x.Data()[i] = amp * rng.Float64()
		}
		a, err := Compress(x, Settings{BitsPerValue: 16})
		if err != nil {
			return false
		}
		y, err := Decompress(a)
		if err != nil {
			return false
		}
		// Every block's exponent is at most the array maximum's.
		_, e := math.Frexp(x.Max())
		return x.MaxAbsDiff(y) <= errorBound16(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
