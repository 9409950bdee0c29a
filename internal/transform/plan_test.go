package transform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleBlock is the transform as it ran before plans existed: a matrix
// lookup per axis per block and one accumulator per output, strided. It
// stays here as the reference the planned kernels must match bit for bit.
func oracleBlock(t *Transform, block []float64, shape []int, inverse bool) {
	vol := len(block)
	scratch := make([]float64, vol)
	stride := vol
	for _, L := range shape {
		stride /= L
		if L == 1 {
			continue
		}
		oracleAxis(block, scratch, vol, L, stride, t.Matrix(L), inverse)
	}
}

func oracleAxis(block, scratch []float64, vol, L, st int, H []float64, inverse bool) {
	outerCount := vol / (L * st)
	for outer := 0; outer < outerCount; outer++ {
		base := outer * L * st
		for inner := 0; inner < st; inner++ {
			o := base + inner
			for gamma := 0; gamma < L; gamma++ {
				acc := 0.0
				if inverse {
					for alpha := 0; alpha < L; alpha++ {
						acc += block[o+alpha*st] * H[gamma*L+alpha]
					}
				} else {
					for alpha := 0; alpha < L; alpha++ {
						acc += block[o+alpha*st] * H[alpha*L+gamma]
					}
				}
				scratch[gamma] = acc
			}
			for gamma := 0; gamma < L; gamma++ {
				block[o+gamma*st] = scratch[gamma]
			}
		}
	}
}

// sameBits reports bit equality, any NaN matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

var oracleShapes = [][]int{
	{8, 8}, {4, 4, 4}, {8, 8, 8}, {4, 8}, {16, 16}, {2, 16}, {1, 8}, {8}, {2, 2, 2, 2},
	{8, 4}, {4}, {16, 4, 2},
}

// oracleInputs returns blocks of the given volume that exercise the
// places an operand reordering would show: signed zeros, infinities, NaN.
func oracleInputs(vol int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(vol)))
	random := make([]float64, vol)
	for i := range random {
		random[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
	}
	negZero := make([]float64, vol)
	for i := range negZero {
		negZero[i] = math.Copysign(0, -1)
	}
	special := append([]float64(nil), random...)
	for i, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)} {
		special[(i*5)%vol] = v
	}
	withNaN := append([]float64(nil), random...)
	withNaN[vol/2] = math.NaN()
	sparse := make([]float64, vol)
	sparse[0], sparse[vol-1] = -1.5, math.Copysign(0, -1)
	oneInf := make([]float64, vol)
	oneInf[vol/3] = math.Inf(-1)
	return [][]float64{random, negZero, special, withNaN, sparse, oneInf, make([]float64, vol)}
}

func TestPlanMatchesOracleBitForBit(t *testing.T) {
	for kind := Kind(0); kind < numKinds; kind++ {
		tr := New(kind)
		for _, shape := range oracleShapes {
			plan := tr.Plan(shape)
			scratch := make([]float64, plan.Scratch())
			for n, in := range oracleInputs(plan.Vol()) {
				for _, inverse := range []bool{false, true} {
					want := append([]float64(nil), in...)
					oracleBlock(tr, want, shape, inverse)
					got := append([]float64(nil), in...)
					if inverse {
						plan.Inverse(got, scratch)
					} else {
						plan.Forward(got, scratch)
					}
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%v %v input %d inverse=%v: element %d = %x (%g), oracle %x (%g)",
								kind, shape, n, inverse, i, math.Float64bits(got[i]), got[i],
								math.Float64bits(want[i]), want[i])
						}
					}
				}
			}
		}
	}
}

func TestPlanScratchAndValidation(t *testing.T) {
	tr := New(DCT)
	if got := tr.Plan([]int{8, 4, 1}).Scratch(); got != 0 {
		t.Errorf("8x4x1 plan wants %d floats of scratch, want 0", got)
	}
	if got := tr.Plan([]int{2, 16}).Scratch(); got != 16 {
		t.Errorf("2x16 plan wants %d floats of scratch, want 16", got)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("block length mismatch", func() { tr.Plan([]int{8}).Forward(make([]float64, 4), nil) })
	mustPanic("short scratch", func() { tr.Plan([]int{16}).Inverse(make([]float64, 16), make([]float64, 8)) })
	mustPanic("zero extent", func() { tr.Plan([]int{4, 0}) })
}

func BenchmarkPlan(b *testing.B) {
	for _, dir := range []string{"forward", "inverse"} {
		for _, shape := range [][]int{{8, 8}, {4, 4, 4}, {16, 16}} {
			name := fmt.Sprint(shape[0])
			for _, e := range shape[1:] {
				name += fmt.Sprint("x", e)
			}
			b.Run(dir+"/"+name, func(b *testing.B) {
				plan := New(DCT).Plan(shape)
				block := make([]float64, plan.Vol())
				for i := range block {
					block[i] = float64(i%7) - 3
				}
				scratch := make([]float64, plan.Scratch())
				b.SetBytes(int64(8 * len(block)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if dir == "forward" {
						plan.Forward(block, scratch)
					} else {
						plan.Inverse(block, scratch)
					}
				}
			})
		}
	}
}
