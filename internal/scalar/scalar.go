// Package scalar provides the reduced-precision scalar types used by the
// compressor: the floating-point storage types (bfloat16, float16, float32,
// float64) and the integer bin-index types (int8, int16, int32, int64).
//
// Go has no hardware half-precision types, so conversions are implemented
// bit-exactly in software with IEEE 754 round-to-nearest-even semantics,
// including subnormals, overflow to infinity, and NaN propagation. Rounding
// a float64 through one of these types reproduces exactly the value a
// PyTorch tensor of that dtype would hold.
package scalar

import (
	"fmt"
	"math"
)

// FloatType identifies one of the supported floating-point storage types.
type FloatType uint8

// Supported floating-point storage types, in increasing width order.
const (
	BFloat16 FloatType = iota
	Float16
	Float32
	Float64
	numFloatTypes
)

// ParseFloatType converts a user-facing name ("bfloat16", "float16",
// "float32", "float64") to a FloatType.
func ParseFloatType(name string) (FloatType, error) {
	switch name {
	case "bfloat16", "bf16":
		return BFloat16, nil
	case "float16", "fp16", "half":
		return Float16, nil
	case "float32", "fp32", "single":
		return Float32, nil
	case "float64", "fp64", "double":
		return Float64, nil
	}
	return 0, fmt.Errorf("scalar: unknown float type %q", name)
}

// String returns the canonical name of the type.
func (t FloatType) String() string {
	switch t {
	case BFloat16:
		return "bfloat16"
	case Float16:
		return "float16"
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("FloatType(%d)", uint8(t))
}

// Valid reports whether t is one of the defined float types.
func (t FloatType) Valid() bool { return t < numFloatTypes }

// Bits returns the storage width of the type in bits.
func (t FloatType) Bits() int {
	switch t {
	case BFloat16, Float16:
		return 16
	case Float32:
		return 32
	case Float64:
		return 64
	}
	return 0
}

// Round rounds x to the nearest value representable in type t, using
// round-to-nearest-even, and returns it widened back to float64.
func (t FloatType) Round(x float64) float64 {
	// The hardware types are answered here so the call inlines into the
	// per-coefficient loops of internal/core; the emulated ones are not.
	if t == Float32 {
		return float64(float32(x))
	}
	if t < Float32 {
		return t.roundHalf(x)
	}
	return x
}

func (t FloatType) roundHalf(x float64) float64 {
	if t == BFloat16 {
		return FromBFloat16Bits(ToBFloat16Bits(x))
	}
	return FromFloat16Bits(ToFloat16Bits(x))
}

// RoundSlice rounds every element of xs in place through type t and
// returns xs.
func (t FloatType) RoundSlice(xs []float64) []float64 {
	if t == Float64 {
		return xs
	}
	for i, x := range xs {
		xs[i] = t.Round(x)
	}
	return xs
}

// IndexType identifies one of the supported integer bin-index types.
type IndexType uint8

// Supported bin-index types, in increasing width order.
const (
	Int8 IndexType = iota
	Int16
	Int32
	Int64
	numIndexTypes
)

// ParseIndexType converts a user-facing name ("int8".."int64") to an
// IndexType.
func ParseIndexType(name string) (IndexType, error) {
	switch name {
	case "int8":
		return Int8, nil
	case "int16":
		return Int16, nil
	case "int32":
		return Int32, nil
	case "int64":
		return Int64, nil
	}
	return 0, fmt.Errorf("scalar: unknown index type %q", name)
}

// String returns the canonical name of the type.
func (t IndexType) String() string {
	switch t {
	case Int8:
		return "int8"
	case Int16:
		return "int16"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	}
	return fmt.Sprintf("IndexType(%d)", uint8(t))
}

// Valid reports whether t is one of the defined index types.
func (t IndexType) Valid() bool { return t < numIndexTypes }

// Bits returns the storage width of the type in bits.
func (t IndexType) Bits() int {
	switch t {
	case Int8:
		return 8
	case Int16:
		return 16
	case Int32:
		return 32
	case Int64:
		return 64
	}
	return 0
}

// Radius returns the index type radius r = 2^(b-1) - 1, the largest bin
// index. Bins span [-r, r], giving 2r+1 bins centered at zero.
func (t IndexType) Radius() int64 {
	return int64(1)<<(t.Bits()-1) - 1
}

// Clamp limits v to the representable range [-r, r] of the index type.
// Binning never produces -2^(b-1) because bins are symmetric around zero.
func (t IndexType) Clamp(v int64) int64 {
	r := t.Radius()
	if v > r {
		return r
	}
	if v < -r {
		return -r
	}
	return v
}

// ToBFloat16Bits converts x to the nearest bfloat16 bit pattern using
// round-to-nearest-even. bfloat16 is the top 16 bits of a float32 with
// rounding applied.
func ToBFloat16Bits(x float64) uint16 {
	f32 := float32(x) // first round to float32 (double rounding is benign here
	// because bfloat16 has strictly fewer significand bits than float32 and
	// float64→float32 is correctly rounded; ties cannot straddle).
	b := math.Float32bits(f32)
	if f32 != f32 { // NaN: keep it a NaN after truncation
		return uint16(b>>16) | 0x0040
	}
	// Round to nearest even on the low 16 bits.
	lsb := (b >> 16) & 1
	rounded := b + 0x7FFF + lsb
	return uint16(rounded >> 16)
}

// FromBFloat16Bits widens a bfloat16 bit pattern to float64.
func FromBFloat16Bits(bits uint16) float64 {
	return float64(math.Float32frombits(uint32(bits) << 16))
}

// ToFloat16Bits converts x to the nearest IEEE 754 binary16 bit pattern
// using round-to-nearest-even, with subnormal and overflow handling.
func ToFloat16Bits(x float64) uint16 {
	b := math.Float64bits(x)
	sign := uint16(b>>48) & 0x8000
	exp := int((b >> 52) & 0x7FF)
	frac := b & 0x000FFFFFFFFFFFFF

	if exp == 0x7FF { // Inf or NaN
		if frac != 0 {
			return sign | 0x7E00 // quiet NaN
		}
		return sign | 0x7C00 // Inf
	}

	// Unbiased exponent of the float64 value.
	e := exp - 1023
	switch {
	case e > 15:
		// Overflows binary16 (max finite is 65504, e=15): round to Inf.
		// Values with e == 15 can still overflow after rounding; handled below.
		return sign | 0x7C00
	case e >= -14:
		// Normal binary16 range. binary16 has 10 fraction bits; float64 has 52.
		// Shift out 42 bits with round-to-nearest-even.
		mant := frac >> 42
		rem := frac & ((1 << 42) - 1)
		half := uint64(1) << 41
		if rem > half || (rem == half && mant&1 == 1) {
			mant++
		}
		he := uint16(e + 15)
		out := sign | he<<10 | uint16(mant&0x3FF)
		if mant>>10 != 0 { // mantissa carry: bump exponent
			out = sign | (he+1)<<10
		}
		if out&0x7FFF >= 0x7C00 {
			return sign | 0x7C00 // rounded into Inf
		}
		return out
	case e >= -25:
		// Subnormal binary16: value = 0.frac * 2^-14.
		// Full significand including implicit 1:
		sig := frac | (1 << 52)
		shift := uint(42 + (-14 - e)) // total right shift to reach 2^-24 ulp
		mant := sig >> shift
		rem := sig & ((uint64(1) << shift) - 1)
		half := uint64(1) << (shift - 1)
		if rem > half || (rem == half && mant&1 == 1) {
			mant++
		}
		// mant may round up into the smallest normal; the bit layout handles
		// that naturally (mant == 0x400 → exponent field 1, fraction 0).
		return sign | uint16(mant)
	default:
		// Underflows to (signed) zero.
		return sign
	}
}

// FromFloat16Bits widens an IEEE 754 binary16 bit pattern to float64.
func FromFloat16Bits(bits uint16) float64 {
	sign := uint64(bits&0x8000) << 48
	exp := int(bits>>10) & 0x1F
	frac := uint64(bits & 0x3FF)

	switch exp {
	case 0:
		if frac == 0 {
			return math.Float64frombits(sign) // ±0
		}
		// Subnormal: frac * 2^-24.
		v := float64(frac) * 0x1p-24
		if sign != 0 {
			return -v
		}
		return v
	case 0x1F:
		if frac != 0 {
			return math.NaN()
		}
		if sign != 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	default:
		e := uint64(exp - 15 + 1023)
		return math.Float64frombits(sign | e<<52 | frac<<42)
	}
}

// SmallestSubnormal returns the smallest positive value representable in
// type t, which bounds the absolute error of rounding to t below its
// normal range.
func (t FloatType) SmallestSubnormal() float64 {
	switch t {
	case BFloat16:
		return 0x1p-133
	case Float16:
		return 0x1p-24
	case Float32:
		return 0x1p-149
	case Float64:
		return 0x1p-1074
	}
	return 0
}

// MachineEpsilon returns the distance between 1 and the next representable
// value in type t.
func (t FloatType) MachineEpsilon() float64 {
	switch t {
	case BFloat16:
		return 0x1p-7
	case Float16:
		return 0x1p-10
	case Float32:
		return 0x1p-23
	case Float64:
		return 0x1p-52
	}
	return 0
}
