package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/scalar"
	"repro/internal/transform"
)

// The differential for nonzero.go: every kernel that skips zero indices
// against its dense loop (nonzero_oracle_test.go), bit for bit, on arrays
// whose N and F are written directly rather than compressed — so N takes
// NaN, ±Inf, −0, subnormal and negative values, and F the lowest index
// −2^(b−1), which neither Compress nor Decode produces.

// nonzeroSpecials are the N_k values a compressor never writes but a
// crafted or overflowed stream may hold.
var nonzeroSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 0x1p-1030, -2.5, math.MaxFloat64, -math.MaxFloat64,
}

// nonzeroArray returns an array of blocks blocks under c's settings,
// filled from next (64 random bits a call). zeroShare percent of F is 0;
// with special, N_k is one of nonzeroSpecials a quarter of the time and F
// holds −2^(b−1), else N_k is finite and positive and F within [−r, r].
func nonzeroArray[T bits.Signed](w width[T], c *Compressor, blocks, zeroShare int, special bool, next func() uint64) *CompressedArray {
	a := c.newArray([]int{blocks * c.plan.Vol()}, []int{blocks})
	for k := range a.N {
		u := next()
		switch {
		case special && u%4 == 0:
			a.N[k] = nonzeroSpecials[(u>>2)%uint64(len(nonzeroSpecials))]
		case special && u%4 == 1:
			a.N[k] = -math.Ldexp(float64(u>>11), -40)
		default:
			a.N[k] = math.Ldexp(float64(u>>11|1), -50+int(u%16))
		}
	}
	lowest := T(-c.radius - 1)
	f := w.of(a)
	for i := range f {
		u := next()
		switch v := T(u >> 8); {
		case int(u%100) < zeroShare:
		case v == lowest && !special:
			f[i] = lowest + 1
		case special && u>>7%16 == 0:
			f[i] = lowest
		default:
			f[i] = v
		}
	}
	return a
}

// sameKernelBits fails unless got and want are the same float64. A NaN's
// sign and payload follow operand order, which the compiler picks (it
// picks differently under -fuzz's instrumentation), so any NaN matches
// any NaN, as in the dense oracle.
func sameKernelBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if !sameBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Errorf("%s = %v (%#x), dense loop %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkNonzeroPair compares every kernel on (a, b) and (a, a) with its
// dense loop.
func checkNonzeroPair[T bits.Signed](t *testing.T, w width[T], c *Compressor, a, b *CompressedArray) {
	t.Helper()
	sum, sumSq := w.moments(c, a)
	wantSum, wantSumSq := denseMoments(w, c, a)
	sameKernelBits(t, "moments sum", sum, wantSum)
	sameKernelBits(t, "moments sumSq", sumSq, wantSumSq)
	sameKernelBits(t, "moments sumSq vs sumSquares", sumSq, denseSumSquares(w, c, a))
	for _, y := range []*CompressedArray{b, a} {
		ab, aa, bb := w.dot3(c, a, y)
		wab, waa, wbb := denseDot3(w, c, a, y)
		sameKernelBits(t, "dot3 ab", ab, wab)
		sameKernelBits(t, "dot3 aa", aa, waa)
		sameKernelBits(t, "dot3 bb", bb, wbb)
		got, want := make([]float64, len(a.N)), make([]float64, len(a.N))
		w.blockCovariances(c, a, y, got)
		denseBlockCovariances(w, c, a, y, want)
		for k := range got {
			sameKernelBits(t, fmt.Sprintf("blockCovariances[%d]", k), got[k], want[k])
		}
	}
	got, want := make([]float64, 2*len(a.N)), make([]float64, 2*len(a.N))
	top, bot, ok := w.blockBounds(c, a, got)
	wtop, wbot, wok := denseBlockBounds(w, c, a, want)
	if top != wtop || bot != wbot || ok != wok {
		t.Errorf("blockBounds = %d, %d, %v; dense loop %d, %d, %v", top, bot, ok, wtop, wbot, wok)
	}
	for i := range got {
		sameKernelBits(t, fmt.Sprintf("blockBounds[%d]", i), got[i], want[i])
	}
}

// checkNonzeroKernels builds two arrays from next and checks them as
// heap slices and, at int8, as read-only views of F whose last byte is
// the last readable one.
func checkNonzeroKernels[T bits.Signed](t *testing.T, w width[T], c *Compressor, blocks, zeroShare int, special bool, next func() uint64) {
	t.Helper()
	a := nonzeroArray(w, c, blocks, zeroShare, special, next)
	b := nonzeroArray(w, c, blocks, zeroShare, special, next)
	checkNonzeroPair(t, w, c, a, b)
	if c.settings.IndexType == scalar.Int8 {
		av, bv := a.Clone(), b.Clone()
		av.F.i8 = int8s(readOnlyCopy(t, bytesOf(a.F.i8)))
		bv.F.i8 = int8s(readOnlyCopy(t, bytesOf(b.F.i8)))
		checkNonzeroPair(t, w, c, av, bv)
	}
}

// checkNonzero dispatches to c's index width.
func checkNonzero(t *testing.T, c *Compressor, blocks, zeroShare int, special bool, next func() uint64) {
	t.Helper()
	switch w := c.k.(type) {
	case width[int8]:
		checkNonzeroKernels(t, w, c, blocks, zeroShare, special, next)
	case width[int16]:
		checkNonzeroKernels(t, w, c, blocks, zeroShare, special, next)
	case width[int32]:
		checkNonzeroKernels(t, w, c, blocks, zeroShare, special, next)
	case width[int64]:
		checkNonzeroKernels(t, w, c, blocks, zeroShare, special, next)
	}
}

// nonzeroSettings are block shapes and masks whose K is 1, 3, 7, 8, 13,
// 16, 19 and 64: most not a multiple of any lane count, one that prunes
// the first coefficient.
func nonzeroSettings(t testing.TB) []Settings {
	maskOf := func(vol int, keep func(pos int) bool) []bool {
		m := make([]bool, vol)
		for pos := range m {
			m[pos] = keep(pos)
		}
		return m
	}
	low, err := KeepLowFrequency([]int{8, 8}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var out []Settings
	for _, bm := range []struct {
		shape []int
		mask  []bool
	}{
		{[]int{8, 8}, nil},
		{[]int{4, 4}, nil},
		{[]int{2, 2, 2}, nil},
		{[]int{8, 8}, low},
		{[]int{4, 4}, maskOf(16, func(pos int) bool { return pos%5 != 3 })},
		{[]int{8}, maskOf(8, func(pos int) bool { return pos != 0 })},
		{[]int{4}, maskOf(4, func(pos int) bool { return pos < 3 })},
		{[]int{2}, maskOf(2, func(pos int) bool { return pos == 0 })},
	} {
		s := DefaultSettings(bm.shape...)
		s.Mask = bm.mask
		out = append(out, s)
	}
	return out
}

// TestNonzeroKernelsMatchDenseLoops runs the differential over every
// index width and float type, the settings above, zero shares of 0, 50,
// 95 and 100 %, and N and F with and without the special values.
func TestNonzeroKernelsMatchDenseLoops(t *testing.T) {
	for _, base := range nonzeroSettings(t) {
		for it := scalar.Int8; it <= scalar.Int64; it++ {
			for ft := scalar.BFloat16; ft <= scalar.Float64; ft++ {
				s := base
				s.IndexType, s.FloatType = it, ft
				c := mustCompressor(t, s)
				for _, zeroShare := range []int{0, 50, 95, 100} {
					for _, special := range []bool{false, true} {
						name := fmt.Sprintf("%v/K=%d/%v/%v/zero=%d%%/special=%v", s.BlockShape, len(c.keep), it, ft, zeroShare, special)
						t.Run(name, func(t *testing.T) {
							rng := rand.New(rand.NewSource(int64(zeroShare) + 1))
							checkNonzero(t, c, 37, zeroShare, special, rng.Uint64)
						})
					}
				}
			}
		}
	}
}

// TestNonzeroKernelsNonFiniteBlock gives one block of otherwise finite,
// sparse arrays a NaN or ±Inf N_k and a single nonzero index, its first:
// a walk of that block would skip the zero indices that recover NaN
// (±Inf·0) and return ±Inf where the dense loop returns NaN. In the
// scattered-special arrays of the test above an earlier NaN hides that.
func TestNonzeroKernelsNonFiniteBlock(t *testing.T) {
	for _, base := range nonzeroSettings(t) {
		for it := scalar.Int8; it <= scalar.Int64; it++ {
			s := base
			s.IndexType, s.FloatType = it, scalar.Float64
			c := mustCompressor(t, s)
			for _, nk := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				t.Run(fmt.Sprintf("%v/K=%d/%v/N=%v", s.BlockShape, len(c.keep), it, nk), func(t *testing.T) {
					switch w := c.k.(type) {
					case width[int8]:
						checkNonFiniteBlock(t, w, c, nk)
					case width[int16]:
						checkNonFiniteBlock(t, w, c, nk)
					case width[int32]:
						checkNonFiniteBlock(t, w, c, nk)
					case width[int64]:
						checkNonFiniteBlock(t, w, c, nk)
					}
				})
			}
		}
	}
}

func checkNonFiniteBlock[T bits.Signed](t *testing.T, w width[T], c *Compressor, nk float64) {
	rng := rand.New(rand.NewSource(3))
	const blocks = 5
	a := nonzeroArray(w, c, blocks, 95, false, rng.Uint64)
	b := nonzeroArray(w, c, blocks, 95, false, rng.Uint64)
	K, k := len(c.keep), blocks-2
	fa := w.of(a)
	clear(fa[k*K : (k+1)*K])
	fa[k*K] = 1
	a.N[k] = nk
	checkNonzeroPair(t, w, c, a, b)
	checkNonzeroPair(t, w, c, b, a)
}

// FuzzNonzeroKernels is the differential on fuzzer-written N and F: raw
// supplies the words F and N are drawn from, sel the settings (index
// width, float type, transform, block shape and mask), the zero share and
// the block count.
func FuzzNonzeroKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0), uint8(95), uint8(5))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0x80, 0xff}, uint16(0x55), uint8(0), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(0x1234), uint8(50), uint8(9))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0x80}, uint16(0x0f), uint8(100), uint8(2))
	settings := nonzeroSettings(f)
	f.Fuzz(func(t *testing.T, raw []byte, sel uint16, zeroShare, blocks uint8) {
		if len(raw) == 0 {
			return
		}
		s := settings[int(sel%8)]
		s.IndexType = scalar.IndexType(sel >> 3 % 4)
		s.FloatType = scalar.FloatType(sel >> 5 % 4)
		s.Transform = transform.Kind(sel >> 7 % 4)
		c, err := NewCompressor(s)
		if err != nil {
			t.Fatal(err)
		}
		var word [8]byte
		pos := 0
		next := func() uint64 {
			for i := range word {
				word[i] = raw[pos%len(raw)]
				pos++
			}
			return binary.LittleEndian.Uint64(word[:])
		}
		checkNonzero(t, c, 1+int(blocks%64), int(zeroShare%101), true, next)
	})
}
