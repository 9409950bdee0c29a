package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/scalar"
	"repro/internal/transform"
)

// The differential for nonzero.go: every kernel over masked arrays
// against its dense loop (nonzero_oracle_test.go) over the same arrays
// held dense, bit for bit. The arrays' N and F are written directly
// rather than compressed — so N takes NaN, ±Inf, −0, subnormal and
// negative values, and F the lowest index −2^(b−1), which neither
// Compress nor Decode produces — and then laid out as the v3 encoder
// lays them out (packV3).

// nonzeroSpecials are the N_k values a compressor never writes but a
// crafted or overflowed stream may hold.
var nonzeroSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 0x1p-1030, -2.5, math.MaxFloat64, -math.MaxFloat64,
}

// nonzeroArray returns a dense array of blocks blocks under c's
// settings, stacked along the first axis, filled from next (64 random
// bits a call). zeroShare percent of F is 0; with special, N_k is one of
// nonzeroSpecials a quarter of the time and F holds −2^(b−1), else N_k is
// finite and positive and F within [−r, r].
func nonzeroArray[T bits.Signed](w width[T], c *Compressor, blocks, zeroShare int, special bool, next func() uint64) *CompressedArray {
	bs := c.settings.BlockShape
	shape, grid := slices.Clone(bs), make([]int, len(bs))
	shape[0] *= blocks
	for i := range grid {
		grid[i] = 1
	}
	grid[0] = blocks
	a := c.newArray(shape, grid)
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

// packV3 returns the dense array a laid out as the v3 encoder lays it
// out: a block masked where maskable says so, dense otherwise, N as a
// holds it (not rounded to the float type, as a stream would). With
// asIfPlain every N_k counts as plain for that choice, so that masked
// blocks keep an N_k that is not — what MulScalar leaves when it
// overflows N_k. Where Encode accepts a, the layout is checked against
// Decode(Encode(a)).
func packV3[T bits.Signed](t *testing.T, w width[T], c *Compressor, a *CompressedArray, asIfPlain bool) *CompressedArray {
	t.Helper()
	K, blocks := len(c.keep), len(a.N)
	f := w.of(a)
	masked := make([]bool, blocks)
	m := 0
	for k, nk := range a.N {
		if asIfPlain {
			nk = 1
		}
		if masked[k] = maskable(nk, c.settings, K, nonzeros(f[k*K:(k+1)*K])); masked[k] {
			m++
		}
	}
	out := a.Clone()
	var runs []T
	occ := make([]byte, (blocks+m*K+7)/8)
	at := blocks
	for k := range a.N {
		blk := f[k*K : (k+1)*K]
		if !masked[k] {
			runs = append(runs, blk...)
			continue
		}
		occ[k>>3] |= 0x80 >> (k & 7)
		for p, v := range blk {
			if v != 0 {
				occ[(at+p)>>3] |= 0x80 >> ((at + p) & 7)
				runs = append(runs, v)
			}
		}
		at += K
	}
	*w.slot(&out.F) = append(make([]T, 0, len(runs)), runs...)
	if m > 0 {
		out.occ = occ
	}
	if stream, err := Encode(a); err == nil && !asIfPlain {
		dec, err := Decode(stream)
		if err != nil {
			t.Fatalf("Decode(Encode(a)): %v", err)
		}
		if !dec.F.Equal(out.F) || !bytes.Equal(dec.occ, out.occ) {
			t.Fatal("Decode(Encode(a)) is not laid out as packV3 lays a out")
		}
	}
	return out
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

// checkNonzeroPair compares every kernel on the packed arrays (pa, pb)
// and (pa, pa) with its dense loop on the dense arrays (a, b) and (a, a).
func checkNonzeroPair[T bits.Signed](t *testing.T, w width[T], c *Compressor, a, b, pa, pb *CompressedArray) {
	t.Helper()
	sum, sumSq := w.moments(c, pa)
	wantSum, wantSumSq := denseMoments(w, c, a)
	sameKernelBits(t, "moments sum", sum, wantSum)
	sameKernelBits(t, "moments sumSq", sumSq, wantSumSq)
	sameKernelBits(t, "moments sumSq vs sumSquares", sumSq, denseSumSquares(w, c, a))
	for _, y := range []struct{ dense, packed *CompressedArray }{{b, pb}, {a, pa}} {
		ab, aa, bb := w.dot3(c, pa, y.packed)
		wab, waa, wbb := denseDot3(w, c, a, y.dense)
		sameKernelBits(t, "dot3 ab", ab, wab)
		sameKernelBits(t, "dot3 aa", aa, waa)
		sameKernelBits(t, "dot3 bb", bb, wbb)
		got, want := make([]float64, len(a.N)), make([]float64, len(a.N))
		w.blockCovariances(c, pa, y.packed, got)
		denseBlockCovariances(w, c, a, y.dense, want)
		for k := range got {
			sameKernelBits(t, fmt.Sprintf("blockCovariances[%d]", k), got[k], want[k])
		}
	}
	got, want := make([]float64, 2*len(a.N)), make([]float64, 2*len(a.N))
	top, bot, ok := w.blockBounds(c, pa, got)
	wtop, wbot, wok := denseBlockBounds(w, c, a, want)
	if top != wtop || bot != wbot || ok != wok {
		t.Errorf("blockBounds = %d, %d, %v; dense loop %d, %d, %v", top, bot, ok, wtop, wbot, wok)
	}
	for i := range got {
		sameKernelBits(t, fmt.Sprintf("blockBounds[%d]", i), got[i], want[i])
	}
	// The coefficients of every block, left-out positions included.
	K := len(c.keep)
	gotC, wantC := make([]float64, K), make([]float64, K)
	cur, dense := c.cursor(pa), c.cursor(a)
	for k := range a.N {
		w.blockCoefficients(c, pa, cur.next(), gotC)
		w.blockCoefficients(c, a, dense.next(), wantC)
		for i := range gotC {
			if !sameBits(gotC[i], wantC[i]) {
				t.Errorf("blockCoefficients[%d][%d] = %v, dense %v", k, i, gotC[i], wantC[i])
			}
		}
	}
	// Every block inverted, every position: a masked block under a plain
	// N_k through the plan's InverseOccupied, the dense one through
	// Inverse.
	inv, invDense := c.blockBuffer(), c.blockBuffer()
	cur, dense = c.cursor(pa), c.cursor(a)
	for k := range a.N {
		w.inverseBlock(c, pa, cur.next(), inv)
		w.inverseBlock(c, a, dense.next(), invDense)
		for i, v := range inv.block {
			sameKernelBits(t, fmt.Sprintf("inverseBlock[%d][%d]", k, i), v, invDense.block[i])
		}
	}
}

// checkNonzeroKernels builds two arrays from next and checks them packed
// as the encoder packs them, and packed as if every N_k were plain; as
// heap slices and, at int8, with F and the masks as read-only views
// whose last byte is the last readable one.
func checkNonzeroKernels[T bits.Signed](t *testing.T, w width[T], c *Compressor, blocks, zeroShare int, special bool, next func() uint64) {
	t.Helper()
	a := nonzeroArray(w, c, blocks, zeroShare, special, next)
	b := nonzeroArray(w, c, blocks, zeroShare, special, next)
	for _, asIfPlain := range []bool{false, true} {
		pa, pb := packV3(t, w, c, a, asIfPlain), packV3(t, w, c, b, asIfPlain)
		checkNonzeroPair(t, w, c, a, b, pa, pb)
		if c.settings.IndexType == scalar.Int8 {
			checkNonzeroPair(t, w, c, a, b, readOnlyArray(t, pa), readOnlyArray(t, pb))
		}
	}
}

// readOnlyArray returns a with its int8 F and its masks in read-only
// memory (readOnlyCopy).
func readOnlyArray(t *testing.T, a *CompressedArray) *CompressedArray {
	v := a.Clone()
	v.F.i8 = int8s(readOnlyCopy(t, bytesOf(a.F.i8)))
	if a.occ != nil {
		v.occ = readOnlyCopy(t, a.occ)
	}
	return v
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
// sparse arrays a NaN or ±Inf N_k and a single nonzero index, its first,
// both in a masked and in a dense block: a walk of that block would skip
// the zero indices that recover NaN (±Inf·0) and return ±Inf where the
// dense loop returns NaN. In the scattered-special arrays of the test
// above an earlier NaN hides that.
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
	// Packed with a plain N_k the block is masked, as the encoder would
	// store it; N_k then goes non-finite in memory, as MulScalar can make
	// it. Packed after, the encoder's rule keeps the block dense.
	pa, pb := packV3(t, w, c, a, false), packV3(t, w, c, b, false)
	a.N[k], pa.N[k] = nk, nk
	checkNonzeroPair(t, w, c, a, b, pa, pb)
	checkNonzeroPair(t, w, c, b, a, pb, pa)
	pa = packV3(t, w, c, a, false)
	checkNonzeroPair(t, w, c, a, b, pa, pb)
	checkNonzeroPair(t, w, c, b, a, pb, pa)
}

// TestNonzeroKernelsUnderflowToNegZero runs the differential on masked
// blocks whose products round to −0: under N_k = 2^−1074·r, a holds the
// coefficient −2^−1074 and b +2^−1074 at two positions of every block, so
// every a·b term, and every transform product under 1/2 in magnitude,
// underflows to −0. Each sum starts at +0 and adds them unfused, so it
// must be +0, not −0 (the first rule in nonzero.go).
func TestNonzeroKernelsUnderflowToNegZero(t *testing.T) {
	for _, base := range nonzeroSettings(t) {
		for it := scalar.Int8; it <= scalar.Int64; it++ {
			s := base
			s.IndexType, s.FloatType = it, scalar.Float64
			c := mustCompressor(t, s)
			if len(c.keep) < 3 {
				continue // two nonzero indices of K < 3 are stored dense
			}
			t.Run(fmt.Sprintf("%v/K=%d/%v", s.BlockShape, len(c.keep), it), func(t *testing.T) {
				switch w := c.k.(type) {
				case width[int8]:
					checkUnderflowBlocks(t, w, c)
				case width[int16]:
					checkUnderflowBlocks(t, w, c)
				case width[int32]:
					checkUnderflowBlocks(t, w, c)
				case width[int64]:
					checkUnderflowBlocks(t, w, c)
				}
			})
		}
	}
}

func checkUnderflowBlocks[T bits.Signed](t *testing.T, w width[T], c *Compressor) {
	const blocks = 3
	zero := rand.New(rand.NewSource(0)).Uint64
	K := len(c.keep)
	arrays := [2]*CompressedArray{}
	for i, sign := range []T{-1, 1} {
		a := nonzeroArray(w, c, blocks, 100, false, zero)
		f := w.of(a)
		for k := range a.N {
			a.N[k] = 0x1p-1074 * c.radius
			f[k*K+K/2], f[k*K+K-1] = sign, sign
		}
		arrays[i] = a
	}
	a, b := arrays[0], arrays[1]
	pa, pb := packV3(t, w, c, a, false), packV3(t, w, c, b, false)
	if pa.occ == nil {
		t.Fatal("packV3 stored every block dense")
	}
	checkNonzeroPair(t, w, c, a, b, pa, pb)
	negZero := func(v float64) bool { return v == 0 && math.Signbit(v) }
	ab, _, _ := w.dot3(c, pa, pb)
	if ab != 0 || negZero(ab) {
		t.Errorf("dot3 ab = %v, want +0", ab)
	}
	if _, sumSq := w.moments(c, pa); sumSq != 0 || negZero(sumSq) {
		t.Errorf("moments sumSq = %v, want +0", sumSq)
	}
	cov := make([]float64, blocks)
	w.blockCovariances(c, pa, pb, cov)
	for k, v := range cov {
		if v != 0 || negZero(v) {
			t.Errorf("blockCovariances[%d] = %v, want +0", k, v)
		}
	}
	inv, cur := c.blockBuffer(), c.cursor(pa)
	for k := range pa.N {
		w.inverseBlock(c, pa, cur.next(), inv)
		for i, v := range inv.block {
			if negZero(v) {
				t.Errorf("inverseBlock[%d][%d] = −0, want +0", k, i)
			}
		}
	}
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
