package zfpsim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/tensor"
)

// oracleWriteBlock, oracleReadBlock and oracleSkip are the block coder as
// it was when every plane went through WriteBit/ReadBit one bit per call.
// They stay as the reference for the plane-at-a-time versions.
func oracleWriteBlock(w *bits.Writer, block []float64, blockShape []int, ints []int64, neg []uint64, budget int) {
	maxAbs := 0.0
	for _, v := range block {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	used := 0
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		w.WriteBits(0, 16)
		used = 16
		for ; used < budget; used++ {
			w.WriteBit(0)
		}
		return
	}
	_, e := math.Frexp(maxAbs)
	w.WriteBits(uint64(e+16384)|(1<<15), 16)
	used = 16
	scale := math.Ldexp(1, fixedPointBits-e)
	for i, v := range block {
		ints[i] = int64(math.RoundToEven(v * scale))
	}
	forwardLift(ints, blockShape)
	top := 0
	for i, v := range ints {
		neg[i] = bits.ToNegabinary(v)
		b := 0
		for u := neg[i]; u != 0; u >>= 1 {
			b++
		}
		if b > top {
			top = b
		}
	}
	if top == 0 {
		top = 1
	}
	w.WriteBits(uint64(top), 6)
	used += 6
	for plane := top - 1; plane >= 0 && used < budget; plane-- {
		for i := range neg {
			if used >= budget {
				break
			}
			w.WriteBit(uint8(neg[i] >> uint(plane) & 1))
			used++
		}
	}
	for ; used < budget; used++ {
		w.WriteBit(0)
	}
}

func oracleReadBlock(r *bits.Reader, block []float64, blockShape []int, ints []int64, neg []uint64, budget int) error {
	head, err := r.ReadBits(16)
	if err != nil {
		return err
	}
	used := 16
	if head == 0 {
		if err := oracleSkip(r, budget-used); err != nil {
			return err
		}
		for i := range block {
			block[i] = 0
		}
		return nil
	}
	e := int(head&0x7FFF) - 16384
	topBits, err := r.ReadBits(6)
	if err != nil {
		return err
	}
	used += 6
	top := int(topBits)
	for i := range neg {
		neg[i] = 0
	}
	for plane := top - 1; plane >= 0 && used < budget; plane-- {
		for i := range neg {
			if used >= budget {
				break
			}
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			neg[i] |= uint64(b) << uint(plane)
			used++
		}
	}
	if err := oracleSkip(r, budget-used); err != nil {
		return err
	}
	for i := range neg {
		ints[i] = bits.FromNegabinary(neg[i])
	}
	inverseLift(ints, blockShape)
	scale := math.Ldexp(1, e-fixedPointBits)
	for i := range block {
		block[i] = float64(ints[i]) * scale
	}
	return nil
}

func oracleSkip(r *bits.Reader, n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.ReadBit(); err != nil {
			return err
		}
	}
	return nil
}

// oracleBlocks returns one block of every kind the coder branches on:
// smooth, rough, tiny and huge magnitudes, zero, and non-finite.
func oracleBlocks(rng *rand.Rand, vol int) [][]float64 {
	mk := func(fn func(i int) float64) []float64 {
		b := make([]float64, vol)
		for i := range b {
			b[i] = fn(i)
		}
		return b
	}
	return [][]float64{
		mk(func(i int) float64 { return float64(i) * 0.25 }),
		mk(func(int) float64 { return rng.NormFloat64() }),
		mk(func(int) float64 { return rng.NormFloat64() * 1e-300 }),
		mk(func(int) float64 { return rng.NormFloat64() * 1e300 }),
		mk(func(i int) float64 { return -float64(i%3) * 1e5 }),
		mk(func(int) float64 { return 7 }),
		mk(func(int) float64 { return 0 }),
		mk(func(i int) float64 {
			if i == 1 {
				return math.Inf(1)
			}
			return 1
		}),
	}
}

// Every rate from the lowest the header fits in up to 64, every
// dimensionality: the same bits out, and the same values back from them
// whichever reader is used, with the reader left at the same place.
func TestBlockCoderMatchesBitAtATimeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 3; d++ {
		blockShape := cubeShape(d)
		vol := tensor.Prod(blockShape)
		ints, ints2, neg := make([]int64, vol), make([]int64, vol), make([]uint64, vol)
		for rate := 1; rate <= 64; rate++ {
			s := Settings{BitsPerValue: rate}
			if s.checkRate(vol) != nil {
				continue
			}
			budget := s.blockBudgetBits(vol)
			var got, want bits.Writer
			// A leading odd bit so blocks start off byte boundaries.
			got.WriteBits(1, 3)
			want.WriteBits(1, 3)
			blocks := oracleBlocks(rng, vol)
			for _, block := range blocks {
				writeBlock(&got, block, blockShape, ints, budget)
				oracleWriteBlock(&want, block, blockShape, ints2, neg, budget)
			}
			if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%d-D rate %d: writeBlock stream differs from the oracle's", d, rate)
			}
			stream := append([]byte(nil), want.Bytes()...)
			r, or := bits.NewReader(stream), bits.NewReader(stream)
			r.ReadBits(3)
			or.ReadBits(3)
			out, oracleOut := make([]float64, vol), make([]float64, vol)
			for n := range blocks {
				for i := range out {
					out[i] = math.NaN() // stale contents must not survive
				}
				if err := readBlock(r, out, blockShape, ints, budget); err != nil {
					t.Fatal(err)
				}
				if err := oracleReadBlock(or, oracleOut, blockShape, ints2, neg, budget); err != nil {
					t.Fatal(err)
				}
				if r.Remaining() != or.Remaining() {
					t.Fatalf("%d-D rate %d block %d: reader at %d bits left, oracle at %d", d, rate, n, r.Remaining(), or.Remaining())
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(oracleOut[i]) {
						t.Fatalf("%d-D rate %d block %d: value %d = %g, oracle %g", d, rate, n, i, out[i], oracleOut[i])
					}
				}
			}
		}
	}
}

// The whole-array loops against the old ones: a blocked copy of the input
// coded block by block into per-block writers, and a blocked array
// unblocked at the end.
func TestCompressDecompressMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][]int{{3}, {37}, {9, 30}, {70, 67}, {5, 9, 7}, {16, 16, 16}} {
		x := tensor.New(shape...)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64() * math.Exp(float64(i%11))
		}
		for _, rate := range []int{6, 8, 13, 16, 32, 64} {
			s := Settings{BitsPerValue: rate}
			blockShape := cubeShape(len(shape))
			vol := tensor.Prod(blockShape)
			if s.checkRate(vol) != nil {
				continue
			}
			got, err := Compress(x, s)
			if err != nil {
				t.Fatal(err)
			}
			budget := s.blockBudgetBits(vol)
			blocked := tensor.BlockTensor(x, blockShape)
			ints, neg := make([]int64, vol), make([]uint64, vol)
			var want bits.Writer
			for k := 0; k < blocked.NumBlocks(); k++ {
				var bw bits.Writer
				oracleWriteBlock(&bw, blocked.Block(k), blockShape, ints, neg, budget)
				want.AppendBits(bw.Bytes(), budget)
			}
			if !bytes.Equal(got.Payload, want.Bytes()) {
				t.Fatalf("shape %v rate %d: payload differs from the oracle's", shape, rate)
			}
			y, err := Decompress(got)
			if err != nil {
				t.Fatal(err)
			}
			r := bits.NewReader(got.Payload)
			for k := 0; k < blocked.NumBlocks(); k++ {
				if err := oracleReadBlock(r, blocked.Block(k), blockShape, ints, neg, budget); err != nil {
					t.Fatal(err)
				}
			}
			wantY := blocked.Unblock()
			for i, w := range wantY.Data() {
				if math.Float64bits(y.Data()[i]) != math.Float64bits(w) {
					t.Fatalf("shape %v rate %d: element %d = %g, oracle %g", shape, rate, i, y.Data()[i], w)
				}
			}
		}
	}
}

// Fixed rate means one pre-sized stream per ParallelFor chunk, not a
// writer per block: the object count must not follow the block count.
func TestCompressAllocationsDoNotGrowWithBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(side int) float64 {
		x := gradientTensor(side, side, side)
		return testing.AllocsPerRun(5, func() {
			if _, err := Compress(x, Settings{BitsPerValue: 16}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 8 blocks and 64 blocks both run on one chunk; 512 blocks fan out
	// over at most GOMAXPROCS chunks.
	small, large := allocs(8), allocs(16)
	if large > small {
		t.Errorf("Compress allocates %v objects for 64 blocks, %v for 8", large, small)
	}
	if small > 16 {
		t.Errorf("Compress allocates %v objects for 8 blocks, want ≤ 16", small)
	}
}

var sinkTensor *tensor.Tensor

func BenchmarkDense(b *testing.B) {
	x := gradientTensor(16, 16, 16)
	s := Settings{BitsPerValue: 16}
	a, err := Compress(x, s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("zfp/compress", func(b *testing.B) {
		b.SetBytes(int64(8 * x.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compress(x, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zfp/decompress", func(b *testing.B) {
		b.SetBytes(int64(8 * x.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := Decompress(a)
			if err != nil {
				b.Fatal(err)
			}
			sinkTensor = t
		}
	})
}
