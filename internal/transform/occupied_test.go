package transform

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential for InverseOccupied: on every block that is +0 outside
// its marks it must return Inverse's outputs bit for bit, whatever the
// marked entries hold, and leave the marks all false.

// occupiedSpecials are marked entries a sum must not lose: NaN, ±Inf, −0,
// +0, subnormals and values whose products overflow.
var occupiedSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -0x1p-1060, 0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
}

// occupiedShapes are the block shapes of rank 1 to 3 with every extent in
// {2, 3, 4, 8, 16}; 3 only under the transforms defined at odd sizes.
func occupiedShapes(kind Kind) [][]int {
	lengths := []int{2, 3, 4, 8, 16}
	if kind == Haar || kind == WalshHadamard {
		lengths = []int{2, 4, 8, 16}
	}
	var out [][]int
	for _, a := range lengths {
		out = append(out, []int{a})
		for _, b := range lengths {
			out = append(out, []int{a, b})
			for _, c := range lengths {
				out = append(out, []int{a, b, c})
			}
		}
	}
	return out
}

// checkOccupied runs InverseOccupied and Inverse on the block that holds
// vals at the positions occ marks and +0 elsewhere, compares them, and
// returns InverseOccupied's outputs.
func checkOccupied(t *testing.T, plan *Plan, occ []bool, vals func() float64) []float64 {
	t.Helper()
	want := make([]float64, plan.Vol())
	marks := make([]uint64, plan.MarkWords())
	in := map[int]float64{} // the marked entries, for the report
	for i, marked := range occ {
		if marked {
			want[i] = vals()
			marks[i/64] |= 1 << (i % 64)
			in[i] = want[i]
		}
	}
	got := append([]float64(nil), want...)
	scratch := make([]float64, plan.Scratch())
	plan.Inverse(want, scratch)
	plan.InverseOccupied(got, scratch, marks)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%d of %d marked, %v: element %d = %v (%#x), Inverse %v (%#x)",
				len(in), len(occ), in, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for i, w := range marks {
		if w != 0 {
			t.Fatalf("word %d of the marks is %#x on return, want 0", i, w)
		}
	}
	return got
}

func TestInverseOccupiedMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := func(special bool) func() float64 {
		return func() float64 {
			if special && rng.Intn(4) == 0 {
				return occupiedSpecials[rng.Intn(len(occupiedSpecials))]
			}
			return rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
		}
	}
	for kind := Kind(0); kind < numKinds; kind++ {
		tr := New(kind)
		for _, shape := range occupiedShapes(kind) {
			plan := tr.Plan(shape)
			vol := plan.Vol()
			occ := make([]bool, vol)
			// Empty and full, one mark, the first line along each axis
			// (what a smooth block's low frequencies occupy), and random
			// marks at shares on both sides of the pass rule's third.
			patterns := []func(i int) bool{
				func(int) bool { return false },
				func(int) bool { return true },
				func(i int) bool { return i == vol/3 },
			}
			for ax := range shape {
				stride := vol
				for _, e := range shape[:ax+1] {
					stride /= e
				}
				patterns = append(patterns, func(i int) bool { return i%stride == 0 && i < stride*shape[ax] })
			}
			for _, share := range []float64{0.05, 0.2, 0.33, 0.5, 0.9} {
				patterns = append(patterns, func(int) bool { return rng.Float64() < share })
			}
			for np, mark := range patterns {
				for _, special := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/%v/pattern=%d/special=%v", kind, shape, np, special), func(t *testing.T) {
						for i := range occ {
							occ[i] = mark(i)
						}
						checkOccupied(t, plan, occ, values(special))
					})
				}
				// Every marked entry −2^−1074: each product with a matrix
				// entry under 1/2 in magnitude underflows to −0. A sum
				// starts at +0 and adds them unfused, so no output is −0.
				t.Run(fmt.Sprintf("%v/%v/pattern=%d/underflow", kind, shape, np), func(t *testing.T) {
					for i := range occ {
						occ[i] = mark(i)
					}
					out := checkOccupied(t, plan, occ, func() float64 { return -0x1p-1074 })
					for i, v := range out {
						if v == 0 && math.Signbit(v) {
							t.Fatalf("element %d = −0, want +0", i)
						}
					}
				})
			}
		}
	}
}

// FuzzInverseOccupied is the differential on fuzzer-written marks and
// entries: sel picks the transform and the block shape, raw supplies the
// marks (a bit a position) and the marked entries (eight bytes each, or a
// special value when the byte after the marks says so).
func FuzzInverseOccupied(f *testing.F) {
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(0x21))
	f.Add([]byte{0xff, 0xff, 0xf0, 0x0f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint16(0x1f3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(0x1234))
	lengths := []int{2, 4, 8, 16, 3}
	f.Fuzz(func(t *testing.T, raw []byte, sel uint16) {
		if len(raw) == 0 {
			return
		}
		kind := Kind(sel % uint16(numKinds))
		rank := 1 + int(sel>>2%3)
		shape := make([]int, rank)
		odd := kind == DCT || kind == Identity
		for i := range shape {
			l := lengths[int(sel>>(4+3*i))%len(lengths)]
			if l == 3 && !odd {
				l = 2
			}
			shape[i] = l
		}
		plan := New(kind).Plan(shape)
		occ := make([]bool, plan.Vol())
		for i := range occ {
			occ[i] = raw[(i/8)%len(raw)]<<(i%8)&0x80 != 0
		}
		pos := (len(occ) + 7) / 8
		var word [8]byte
		checkOccupied(t, plan, occ, func() float64 {
			tag := raw[pos%len(raw)]
			pos++
			if tag%4 == 0 {
				return occupiedSpecials[int(tag/4)%len(occupiedSpecials)]
			}
			for i := range word {
				word[i] = raw[pos%len(raw)]
				pos++
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		})
	})
}
