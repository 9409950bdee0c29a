package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

// checkExtrema holds Extrema to its contract on a: the decoded scan's
// Min and Max to the bit, or ErrExtremaUndecided exactly where the block
// bounds cannot decide — the identity transform, a non-finite N_k, or a
// zero extreme. Coefficients large enough for Σ Ĉ² to overflow may go
// either way. It returns how many blocks Extrema inverted.
func checkExtrema(t *testing.T, c *Compressor, a *CompressedArray) int {
	t.Helper()
	full, err := c.Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	wantLo, wantHi := full.Min(), full.Max()
	mustDefer := c.settings.Transform == transform.Identity || wantLo == 0 || wantHi == 0
	for _, nk := range a.N {
		mustDefer = mustDefer || math.IsNaN(nk) || math.IsInf(nk, 0)
	}
	mayDefer := mustDefer
	for _, v := range c.specifiedCoefficients(a) {
		mayDefer = mayDefer || math.Abs(v) > 0x1p500
	}
	lo, hi, visited, err := c.extrema(a)
	switch {
	case errors.Is(err, ErrExtremaUndecided):
		if !mayDefer {
			t.Fatalf("Extrema undecided on a frame it must decide (decoded min %v, max %v)", wantLo, wantHi)
		}
	case err != nil:
		t.Fatal(err)
	case mustDefer:
		t.Fatalf("Extrema = %v, %v where it must defer (decoded min %v, max %v)", lo, hi, wantLo, wantHi)
	case !sameBits(lo, wantLo) || !sameBits(hi, wantHi):
		t.Fatalf("Extrema = %v (%#x), %v (%#x); decoded Min %v (%#x), Max %v (%#x)",
			lo, math.Float64bits(lo), hi, math.Float64bits(hi),
			wantLo, math.Float64bits(wantLo), wantHi, math.Float64bits(wantHi))
	case visited > a.NumBlocks():
		t.Fatalf("Extrema inverted %d blocks of %d: one was visited twice", visited, a.NumBlocks())
	}
	return visited
}

func TestExtremaMatchesDecompress(t *testing.T) {
	for _, cfg := range denseConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			c := mustCompressor(t, cfg.s)
			for seed := int64(1); seed <= 3; seed++ {
				checkExtrema(t, c, compress(t, c, cfg.mk(seed, cfg.shape...)))
			}
		})
	}
}

// TestExtremaAdversarial runs the contract on frames built to break the
// bound or the zero rule.
func TestExtremaAdversarial(t *testing.T) {
	shape := []int{21, 19} // edge blocks on both axes
	fill := func(v float64) func() *tensor.Tensor {
		return func() *tensor.Tensor { x := tensor.New(shape...); x.Fill(v); return x }
	}
	smooth := func(shift float64) func() *tensor.Tensor {
		return func() *tensor.Tensor { return smoothTensor(3, shape...).AddScalar(shift) }
	}
	with := func(base func() *tensor.Tensor, set func(x *tensor.Tensor)) func() *tensor.Tensor {
		return func() *tensor.Tensor { x := base(); set(x); return x }
	}
	at := func(x *tensor.Tensor, v float64, idx ...int) { x.Data()[x.Offset(idx)] = v }
	// zeroBlock writes one whole block of zeros of the given sign; it
	// decodes to +0 either way, since every inverse sum starts at 0.0.
	zeroBlock := func(sign float64) func(x *tensor.Tensor) {
		return func(x *tensor.Tensor) {
			for i := 4; i < 8; i++ {
				for j := 8; j < 12; j++ {
					at(x, math.Copysign(0, sign), i, j)
				}
			}
		}
	}
	dcPruned := make([]bool, 16)
	for i := 1; i < 16; i++ {
		dcPruned[i] = true
	}
	cases := []struct {
		name   string
		ft     scalar.FloatType
		mask   []bool
		mk     func() *tensor.Tensor
		decide bool // false: must return ErrExtremaUndecided
	}{
		{"spike", scalar.Float64, nil, with(smooth(5), func(x *tensor.Tensor) { at(x, 1000, 9, 13) }), true},
		{"negative spike in the edge block", scalar.Float32, nil, with(smooth(5), func(x *tensor.Tensor) { at(x, -1000, 20, 18) }), true},
		{"constant", scalar.Float32, nil, fill(3.25), true},
		{"all negative", scalar.Float64, nil, smooth(-10), true},
		{"first coefficient pruned", scalar.Float64, dcPruned, smooth(-10), true},
		{"+Inf", scalar.Float64, nil, with(smooth(1), func(x *tensor.Tensor) { at(x, math.Inf(1), 2, 3) }), false},
		{"-Inf", scalar.Float32, nil, with(smooth(1), func(x *tensor.Tensor) { at(x, math.Inf(-1), 17, 0) }), false},
		{"NaN", scalar.Float64, nil, with(smooth(1), func(x *tensor.Tensor) { at(x, math.NaN(), 5, 5) }), false},
		{"float16 overflow", scalar.Float16, nil, with(smooth(1), func(x *tensor.Tensor) { at(x, 70000, 0, 0) }), false},
		{"float16 block sum overflow", scalar.Float16, nil, fill(60000), false},
		{"min is a +0 block", scalar.Float32, nil, with(smooth(5), zeroBlock(1)), false},
		{"max is a −0 block", scalar.Float32, nil, with(smooth(-10), zeroBlock(-1)), false},
		{"all zero", scalar.Float64, nil, fill(0), false},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			s := DefaultSettings(4, 4)
			s.FloatType, s.Mask = cse.ft, cse.mask
			c := mustCompressor(t, s)
			a := compress(t, c, cse.mk())
			checkExtrema(t, c, a)
			if _, _, err := c.Extrema(a); errors.Is(err, ErrExtremaUndecided) == cse.decide {
				t.Fatalf("Extrema error %v, want decided = %v", err, cse.decide)
			}
		})
	}
	// Identity has no constant first basis vector, so no bound.
	s := DefaultSettings(4, 4)
	s.Transform = transform.Identity
	c := mustCompressor(t, s)
	if _, _, err := c.Extrema(compress(t, c, smoothTensor(1, shape...))); !errors.Is(err, ErrExtremaUndecided) {
		t.Fatalf("identity transform: %v, want ErrExtremaUndecided", err)
	}
	// Compress never writes a negative N_k, but Decode takes one from a
	// crafted stream, and Decompress then flips that block's signs.
	c = mustCompressor(t, DefaultSettings(4, 4))
	a := compress(t, c, with(smooth(3), func(x *tensor.Tensor) { at(x, 9, 10, 10) })())
	for k := range a.N {
		if k%3 != 1 {
			a.N[k] = -a.N[k]
		}
	}
	checkExtrema(t, c, a)
}

// TestBlockBoundsHoldEveryCell checks the bound itself, cell by cell,
// where it is tightest: blocks of one AC coefficient, whose peak cell
// meets m_b ± |Ĉ_i|·p_i exactly in real arithmetic, so only the slack for
// rounding (of the coefficient to the float type, and of the inverse)
// keeps the computed cell inside; and dense random blocks.
func TestBlockBoundsHoldEveryCell(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tr := range []transform.Kind{transform.DCT, transform.Haar, transform.WalshHadamard} {
		for _, bs := range [][]int{{8, 8}, {4, 4, 4}, {16}, {2, 8}} {
			for _, ft := range []scalar.FloatType{scalar.Float16, scalar.Float32, scalar.Float64} {
				s := DefaultSettings(bs...)
				s.Transform, s.FloatType = tr, ft
				c := mustCompressor(t, s)
				vol, K := c.plan.Vol(), len(c.keep)
				const n = 400
				shape := append(make([]int, len(bs)-1), n*bs[len(bs)-1])
				for i := range shape[:len(bs)-1] {
					shape[i] = bs[i]
				}
				a := c.newArray(shape, tensor.CeilDiv(shape, bs))
				f := a.F.i16
				for k := range a.N {
					a.N[k] = ft.Round(math.Ldexp(1+rng.Float64(), rng.Intn(20)-10))
					blk := f[k*K : (k+1)*K]
					blk[0] = int16(rng.Intn(2*32767+1) - 32767)
					if k%2 == 0 { // one AC coefficient
						blk[1+rng.Intn(K-1)] = int16((16384 + rng.Intn(16384)) * (1 - 2*rng.Intn(2)))
						continue
					}
					for i := 1; i < K; i++ {
						blk[i] = int16(rng.Intn(2*32767+1) - 32767)
					}
				}
				bounds := make([]float64, 2*len(a.N))
				if _, _, ok := c.k.blockBounds(c, a, bounds); !ok {
					t.Fatalf("%v %v %v: bounds not finite", tr, bs, ft)
				}
				buf := c.blockBuffer()
				cur := c.cursor(a)
				for k := range a.N {
					c.k.inverseBlock(c, a, cur.next(), buf)
					for j, v := range buf.block[:vol] {
						if v < bounds[2*k] || v > bounds[2*k+1] {
							t.Fatalf("%v %v %v: block %d cell %d = %v outside [%v, %v]",
								tr, bs, ft, k, j, v, bounds[2*k], bounds[2*k+1])
						}
					}
				}
			}
		}
	}
}

// TestExtremaVisitsFewBlocks: on the benchmark's grid frame and on the
// analytics frame (256², 8×8, int8) Extrema inverts at most a tenth of
// the blocks.
func TestExtremaVisitsFewBlocks(t *testing.T) {
	c, analytics, _ := analyticsFrames(t)
	grid, err := c.Compress(data.Gradient(256, 256).AddScalar(0.3))
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*CompressedArray{"grid": grid, "analytics": analytics} {
		visited := checkExtrema(t, c, a)
		t.Logf("%s: %d of %d blocks inverted", name, visited, a.NumBlocks())
		if visited*10 > a.NumBlocks() {
			t.Errorf("%s: Extrema inverted %d of %d blocks, want ≤ 10 %%", name, visited, a.NumBlocks())
		}
	}
}

// TestExtremaAllocatesBoundsAndOneBlock pins Extrema's memory: the
// bounds, two floats a block, and one block buffer — nothing the size of
// the frame.
func TestExtremaAllocatesBoundsAndOneBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, a, _ := analyticsFrames(t)
	for _, d := range decoders {
		x, err := d.decode(mustEncode(t, a))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			lo, hi, err := c.Extrema(x)
			if err != nil {
				t.Fatal(err)
			}
			sinkFloat = lo + hi
		}
		if objects := testing.AllocsPerRun(10, run); objects > 3 {
			t.Errorf("%s: Extrema allocates %v objects, want ≤ 3", d.name, objects)
		}
		got := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		}).AllocedBytesPerOp()
		// The block buffer holds the plan's marks too, and the runtime
		// rounds it up to its size class: 528 B to 576 for an 8×8 block.
		buffer := 8 * (c.plan.Vol() + c.plan.Scratch() + c.plan.MarkWords())
		limit := int64(16*x.NumBlocks() + (buffer+63)/64*64)
		if got > limit {
			t.Errorf("%s: Extrema allocates %d B, want ≤ %d (bounds + one block)", d.name, got, limit)
		}
	}
}

// FuzzExtrema holds Extrema to checkExtrema's contract, and Moments to
// checkMoments', on arbitrary float64 frames — NaN, ±Inf, subnormal and
// huge values included — under every transform, float type and index
// type, masked or not, in block shapes that leave partial edge blocks,
// with some N_k negated or not.
func FuzzExtrema(f *testing.F) {
	floats := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	smooth := smoothTensor(1, 9, 7).Data()
	f.Add(floats(smooth...), uint8(9), uint16(0))
	f.Add(floats(smooth...), uint8(3), uint16(0x2a))
	f.Add(floats(smooth...), uint8(7), uint16(0x7f))
	f.Add(floats(1, 1, 1, 1, 1, 1, 1, 1, 1000, 1, 1, 1), uint8(3), uint16(5))
	f.Add(floats(0, -0.0, 0, 2, 3, 4), uint8(2), uint16(0x13))
	f.Add(floats(1, math.NaN(), 2, math.Inf(1), -3, 4), uint8(2), uint16(0x41))
	f.Add(floats(1e300, -1e300, 5e-324, 1, 2, 3, 4, 5), uint8(4), uint16(0x30))
	f.Add(floats(70000, 1, 2, 3), uint8(2), uint16(0x04))
	f.Add(floats(smooth...), uint8(9), uint16(0x200))
	blockShapes := [][]int{{4, 4}, {2, 8}, {8, 8}, {4, 2}}
	f.Fuzz(func(t *testing.T, raw []byte, rows uint8, sel uint16) {
		n := min(len(raw)/8, 512)
		if n == 0 {
			return
		}
		r := 1 + int(rows)%min(n, 32)
		shape := []int{r, n / r}
		x := tensor.New(shape...)
		for i := range x.Data() {
			x.Data()[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		s := DefaultSettings(blockShapes[sel%4]...)
		s.Transform = transform.Kind((sel >> 2) % 4)
		s.FloatType = scalar.FloatType((sel >> 4) % 4)
		s.IndexType = scalar.IndexType((sel >> 6) % 4)
		if (sel>>8)&1 == 1 {
			mask, err := KeepLowFrequency(s.BlockShape, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			s.Mask = mask
		}
		c, err := NewCompressor(s)
		if err != nil {
			t.Fatal(err)
		}
		a := compress(t, c, x)
		if (sel>>9)&1 == 1 { // as a crafted stream may
			for k := 0; k < len(a.N); k += 2 {
				a.N[k] = -a.N[k]
			}
		}
		checkExtrema(t, c, a)
		checkMoments(t, c, a)
	})
}

func ExampleCompressor_Extrema() {
	c, err := NewCompressor(DefaultSettings(8, 8))
	if err != nil {
		panic(err)
	}
	a, err := c.Compress(data.Gradient(64, 64).AddScalar(1))
	if err != nil {
		panic(err)
	}
	lo, hi, err := c.Extrema(a)
	if err != nil {
		panic(err)
	}
	full, _ := c.Decompress(a)
	fmt.Println(lo == full.Min(), hi == full.Max())
	// Output: true true
}
