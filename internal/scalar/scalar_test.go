package scalar

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloatTypeString(t *testing.T) {
	cases := map[FloatType]string{
		BFloat16: "bfloat16",
		Float16:  "float16",
		Float32:  "float32",
		Float64:  "float64",
	}
	for ft, want := range cases {
		if got := ft.String(); got != want {
			t.Errorf("FloatType(%d).String() = %q, want %q", ft, got, want)
		}
		back, err := ParseFloatType(want)
		if err != nil || back != ft {
			t.Errorf("ParseFloatType(%q) = %v, %v; want %v", want, back, err, ft)
		}
	}
	if got := FloatType(99).String(); got != "FloatType(99)" {
		t.Errorf("unknown type String() = %q", got)
	}
	if _, err := ParseFloatType("nope"); err == nil {
		t.Error("ParseFloatType of unknown name should fail")
	}
}

func TestFloatTypeAliases(t *testing.T) {
	for _, c := range []struct {
		name string
		want FloatType
	}{
		{"bf16", BFloat16}, {"fp16", Float16}, {"half", Float16},
		{"fp32", Float32}, {"single", Float32}, {"fp64", Float64}, {"double", Float64},
	} {
		got, err := ParseFloatType(c.name)
		if err != nil || got != c.want {
			t.Errorf("ParseFloatType(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}

func TestFloatTypeBits(t *testing.T) {
	cases := map[FloatType]int{BFloat16: 16, Float16: 16, Float32: 32, Float64: 64}
	for ft, want := range cases {
		if got := ft.Bits(); got != want {
			t.Errorf("%v.Bits() = %d, want %d", ft, got, want)
		}
	}
	if FloatType(99).Bits() != 0 {
		t.Error("unknown float type should have 0 bits")
	}
}

func TestIndexType(t *testing.T) {
	cases := []struct {
		it     IndexType
		name   string
		bits   int
		radius int64
	}{
		{Int8, "int8", 8, 127},
		{Int16, "int16", 16, 32767},
		{Int32, "int32", 32, 2147483647},
		{Int64, "int64", 64, math.MaxInt64},
	}
	for _, c := range cases {
		if c.it.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.it, c.it.String(), c.name)
		}
		if c.it.Bits() != c.bits {
			t.Errorf("%v.Bits() = %d, want %d", c.it, c.it.Bits(), c.bits)
		}
		if c.it.Radius() != c.radius {
			t.Errorf("%v.Radius() = %d, want %d", c.it, c.it.Radius(), c.radius)
		}
		back, err := ParseIndexType(c.name)
		if err != nil || back != c.it {
			t.Errorf("ParseIndexType(%q) = %v, %v", c.name, back, err)
		}
		if !c.it.Valid() {
			t.Errorf("%v should be valid", c.it)
		}
	}
	if _, err := ParseIndexType("uint8"); err == nil {
		t.Error("ParseIndexType of unknown name should fail")
	}
	if IndexType(9).Valid() {
		t.Error("IndexType(9) should be invalid")
	}
	if IndexType(9).Bits() != 0 {
		t.Error("unknown index type should have 0 bits")
	}
	if IndexType(9).String() != "IndexType(9)" {
		t.Error("unknown index type String")
	}
}

func TestIndexTypeClamp(t *testing.T) {
	if got := Int8.Clamp(300); got != 127 {
		t.Errorf("Int8.Clamp(300) = %d, want 127", got)
	}
	if got := Int8.Clamp(-300); got != -127 {
		t.Errorf("Int8.Clamp(-300) = %d, want -127", got)
	}
	if got := Int8.Clamp(42); got != 42 {
		t.Errorf("Int8.Clamp(42) = %d, want 42", got)
	}
	if got := Int16.Clamp(40000); got != 32767 {
		t.Errorf("Int16.Clamp = %d, want 32767", got)
	}
}

func TestFloat16ExactValues(t *testing.T) {
	cases := []struct {
		x    float64
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},        // max finite half
		{0x1p-14, 0x0400},      // smallest normal
		{0x1p-24, 0x0001},      // smallest subnormal
		{0x1p-25, 0x0000},      // ties to even → zero
		{65536, 0x7C00},        // overflow → +Inf
		{-65536, 0xFC00},       // overflow → -Inf
		{1.0009765625, 0x3C01}, // 1 + 2^-10
	}
	for _, c := range cases {
		if got := ToFloat16Bits(c.x); got != c.bits {
			t.Errorf("ToFloat16Bits(%g) = %#04x, want %#04x", c.x, got, c.bits)
		}
	}
}

func TestFloat16RoundTrip(t *testing.T) {
	// Every finite binary16 value must survive the widen→narrow round trip.
	for b := 0; b < 1<<16; b++ {
		bits := uint16(b)
		if bits&0x7C00 == 0x7C00 {
			continue // Inf/NaN handled separately
		}
		v := FromFloat16Bits(bits)
		back := ToFloat16Bits(v)
		// -0 and +0 both acceptable only for their own sign.
		if back != bits {
			t.Fatalf("round trip %#04x → %g → %#04x", bits, v, back)
		}
	}
}

func TestFloat16SpecialValues(t *testing.T) {
	if v := FromFloat16Bits(0x7C00); !math.IsInf(v, 1) {
		t.Errorf("0x7C00 should be +Inf, got %g", v)
	}
	if v := FromFloat16Bits(0xFC00); !math.IsInf(v, -1) {
		t.Errorf("0xFC00 should be -Inf, got %g", v)
	}
	if v := FromFloat16Bits(0x7E00); !math.IsNaN(v) {
		t.Errorf("0x7E00 should be NaN, got %g", v)
	}
	if bits := ToFloat16Bits(math.NaN()); bits&0x7C00 != 0x7C00 || bits&0x03FF == 0 {
		t.Errorf("ToFloat16Bits(NaN) = %#04x, not a NaN pattern", bits)
	}
	if bits := ToFloat16Bits(math.Inf(1)); bits != 0x7C00 {
		t.Errorf("ToFloat16Bits(+Inf) = %#04x", bits)
	}
	if bits := ToFloat16Bits(math.Inf(-1)); bits != 0xFC00 {
		t.Errorf("ToFloat16Bits(-Inf) = %#04x", bits)
	}
	if bits := ToFloat16Bits(math.Copysign(0, -1)); bits != 0x8000 {
		t.Errorf("ToFloat16Bits(-0) = %#04x, want 0x8000", bits)
	}
}

func TestFloat16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly between 1 and 1+2^-10: ties to even → 1.
	if got := Float16.Round(1 + 0x1p-11); got != 1 {
		t.Errorf("Round(1+2^-11) = %g, want 1 (ties to even)", got)
	}
	// 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: ties to even → 1+2^-9.
	if got := Float16.Round(1 + 3*0x1p-11); got != 1+0x1p-9 {
		t.Errorf("Round(1+3·2^-11) = %g, want %g", got, 1+0x1p-9)
	}
	// Slightly above the tie rounds up.
	if got := Float16.Round(1 + 0x1p-11 + 0x1p-20); got != 1+0x1p-10 {
		t.Errorf("Round(just above tie) = %g, want %g", got, 1+0x1p-10)
	}
}

func TestFloat16MantissaCarry(t *testing.T) {
	// 2047.5 rounds to 2048 (mantissa overflow bumps the exponent).
	if got := Float16.Round(2047.5); got != 2048 {
		t.Errorf("Round(2047.5) = %g, want 2048", got)
	}
	// 65519.999 < halfway to 65536+: stays 65504; 65520 rounds to Inf.
	if got := Float16.Round(65519); got != 65504 {
		t.Errorf("Round(65519) = %g, want 65504", got)
	}
	if got := Float16.Round(65520); !math.IsInf(got, 1) {
		t.Errorf("Round(65520) = %g, want +Inf", got)
	}
}

func TestBFloat16ExactValues(t *testing.T) {
	cases := []struct {
		x    float64
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3F80},
		{-1, 0xBF80},
		{2, 0x4000},
		{0.5, 0x3F00},
		{3.0e38, 0x7F62}, // large but finite in bfloat16
	}
	for _, c := range cases {
		if got := ToBFloat16Bits(c.x); got != c.bits {
			t.Errorf("ToBFloat16Bits(%g) = %#04x, want %#04x", c.x, got, c.bits)
		}
	}
}

func TestBFloat16RoundTrip(t *testing.T) {
	for b := 0; b < 1<<16; b++ {
		bits := uint16(b)
		if bits&0x7F80 == 0x7F80 {
			continue // Inf/NaN
		}
		v := FromBFloat16Bits(bits)
		if back := ToBFloat16Bits(v); back != bits {
			t.Fatalf("bfloat16 round trip %#04x → %g → %#04x", bits, v, back)
		}
	}
}

func TestBFloat16Specials(t *testing.T) {
	if !math.IsNaN(FromBFloat16Bits(ToBFloat16Bits(math.NaN()))) {
		t.Error("bfloat16 NaN should survive")
	}
	if !math.IsInf(FromBFloat16Bits(ToBFloat16Bits(math.Inf(1))), 1) {
		t.Error("bfloat16 +Inf should survive")
	}
	// bfloat16 has float32's exponent range: 1e38 stays finite,
	// while float16 overflows at 65520.
	if math.IsInf(BFloat16.Round(1e38), 0) {
		t.Error("1e38 should be finite in bfloat16")
	}
	if !math.IsInf(Float16.Round(1e38), 1) {
		t.Error("1e38 should overflow float16")
	}
}

func TestBFloat16DynamicRangeVsFloat16Precision(t *testing.T) {
	// The paper's Fig. 5 discussion: float16 usually achieves lower error
	// from its longer significand; bfloat16 avoids NaN/Inf from its longer
	// exponent. Check both properties numerically.
	x := 1.0 / 3.0
	errF16 := math.Abs(Float16.Round(x) - x)
	errBF16 := math.Abs(BFloat16.Round(x) - x)
	if errF16 >= errBF16 {
		t.Errorf("float16 error %g should be < bfloat16 error %g for in-range values", errF16, errBF16)
	}
}

func TestRoundFloat32AndFloat64(t *testing.T) {
	x := 1.0000000000001
	if got := Float64.Round(x); got != x {
		t.Errorf("Float64.Round should be identity, got %g", got)
	}
	if got := Float32.Round(x); got != float64(float32(x)) {
		t.Errorf("Float32.Round = %g", got)
	}
	if got := FloatType(99).Round(x); got != x {
		t.Errorf("unknown type Round should be identity, got %g", got)
	}
}

func TestRoundSlice(t *testing.T) {
	xs := []float64{1.2345678, -2.5, 0.1}
	orig := append([]float64(nil), xs...)
	Float16.RoundSlice(xs)
	for i := range xs {
		if xs[i] != Float16.Round(orig[i]) {
			t.Errorf("RoundSlice[%d] = %g, want %g", i, xs[i], Float16.Round(orig[i]))
		}
	}
	// Float64 path must be a no-op returning the same slice.
	ys := []float64{1, 2, 3}
	if got := Float64.RoundSlice(ys); &got[0] != &ys[0] {
		t.Error("Float64.RoundSlice should return the same backing slice")
	}
}

func TestEpsilon(t *testing.T) {
	// Epsilon ordering: bfloat16 coarsest, float64 finest.
	if !(BFloat16.MachineEpsilon() > Float16.MachineEpsilon() &&
		Float16.MachineEpsilon() > Float32.MachineEpsilon() &&
		Float32.MachineEpsilon() > Float64.MachineEpsilon()) {
		t.Error("machine epsilon ordering violated")
	}
	if FloatType(99).MachineEpsilon() != 0 {
		t.Error("unknown type MachineEpsilon should be 0")
	}
	// The smallest subnormal survives rounding; less than half of it
	// rounds to zero.
	for _, ft := range []FloatType{BFloat16, Float16, Float32, Float64} {
		s := ft.SmallestSubnormal()
		if ft.Round(s) != s || (ft != Float64 && ft.Round(0.49*s) != 0) {
			t.Errorf("%v.SmallestSubnormal = %g does not round like one", ft, s)
		}
	}
}

// Property: rounding is idempotent for all types.
func TestRoundIdempotentProperty(t *testing.T) {
	for _, ft := range []FloatType{BFloat16, Float16, Float32, Float64} {
		ft := ft
		f := func(x float64) bool {
			once := ft.Round(x)
			twice := ft.Round(once)
			if math.IsNaN(once) {
				return math.IsNaN(twice)
			}
			return once == twice
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%v: rounding not idempotent: %v", ft, err)
		}
	}
}

// Property: rounding error is bounded by half an ulp of the rounded value
// for normal-range inputs.
func TestRoundErrorBoundProperty(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 1000) // keep in the normal range of float16
		if math.IsNaN(x) {
			return true
		}
		r := Float16.Round(x)
		if math.IsInf(r, 0) {
			return true
		}
		ulp := math.Max(math.Abs(r), 0x1p-14) * 0x1p-10
		return math.Abs(r-x) <= ulp/2+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: rounding is monotone (x ≤ y ⇒ round(x) ≤ round(y)).
func TestRoundMonotoneProperty(t *testing.T) {
	for _, ft := range []FloatType{BFloat16, Float16} {
		ft := ft
		f := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) {
				return true
			}
			x, y := a, b
			if x > y {
				x, y = y, x
			}
			return ft.Round(x) <= ft.Round(y)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("%v: rounding not monotone: %v", ft, err)
		}
	}
}

// Property: rounding respects sign symmetry: round(-x) = -round(x).
func TestRoundSignSymmetryProperty(t *testing.T) {
	for _, ft := range []FloatType{BFloat16, Float16, Float32} {
		ft := ft
		f := func(x float64) bool {
			if math.IsNaN(x) {
				return true
			}
			return ft.Round(-x) == -ft.Round(x)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("%v: sign symmetry violated: %v", ft, err)
		}
	}
}
