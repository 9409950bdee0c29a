package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

// The dense path as it was before plans and the block cursor — a converted
// copy of the input, a blocked copy of that, one accumulator per transform
// output, one element at a time through a multi-index in and out — kept
// as the oracle: Compress, Decompress and DecompressRegion must reproduce
// it bit for bit.

// refBlocks gathers t into zero-padded blocks, one element at a time.
func refBlocks(t *tensor.Tensor, bs []int) (blocks []int, data []float64) {
	s := t.Shape()
	blocks = tensor.CeilDiv(s, bs)
	vol := tensor.Prod(bs)
	data = make([]float64, tensor.Prod(blocks)*vol)
	d := len(s)
	blockIdx, inner, src := make([]int, d), make([]int, d), make([]int, d)
	for k := 0; k < tensor.Prod(blocks); k++ {
		clear(inner)
		for pos := 0; ; pos++ {
			inRange := true
			for a := 0; a < d; a++ {
				src[a] = blockIdx[a]*bs[a] + inner[a]
				if src[a] >= s[a] {
					inRange = false
				}
			}
			if inRange {
				data[k*vol+pos] = t.Data()[t.Offset(src)]
			}
			if !tensor.NextIndex(inner, bs) {
				break
			}
		}
		tensor.NextIndex(blockIdx, blocks)
	}
	return blocks, data
}

// refUnblock scatters blocks into a tensor of the given shape, cropping.
func refUnblock(shape, bs, blocks []int, data []float64) *tensor.Tensor {
	out := tensor.New(shape...)
	vol := tensor.Prod(bs)
	d := len(shape)
	blockIdx, inner, dst := make([]int, d), make([]int, d), make([]int, d)
	for k := 0; k < tensor.Prod(blocks); k++ {
		clear(inner)
		for pos := 0; ; pos++ {
			inRange := true
			for a := 0; a < d; a++ {
				dst[a] = blockIdx[a]*bs[a] + inner[a]
				if dst[a] >= shape[a] {
					inRange = false
				}
			}
			if inRange {
				out.Data()[out.Offset(dst)] = data[k*vol+pos]
			}
			if !tensor.NextIndex(inner, bs) {
				break
			}
		}
		tensor.NextIndex(blockIdx, blocks)
	}
	return out
}

// refTransform applies the separable transform to one block with the old
// axis loop: acc := 0.0; acc += x[α]·H[…], strided, through a scratch line.
func refTransform(tr *transform.Transform, block []float64, bs []int, inverse bool) {
	vol := len(block)
	scratch := make([]float64, vol)
	st := vol
	for _, L := range bs {
		st /= L
		if L == 1 {
			continue
		}
		H := tr.Matrix(L)
		for outer := 0; outer < vol/(L*st); outer++ {
			for inner := 0; inner < st; inner++ {
				o := outer*L*st + inner
				for gamma := 0; gamma < L; gamma++ {
					acc := 0.0
					for alpha := 0; alpha < L; alpha++ {
						if inverse {
							acc += block[o+alpha*st] * H[gamma*L+alpha]
						} else {
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
}

// refCompress is the old Compress: its result as a CompressedArray built
// index by index.
func refCompress(c *Compressor, t *tensor.Tensor) *CompressedArray {
	ft, it, bs := c.settings.FloatType, c.settings.IndexType, c.settings.BlockShape
	conv := t
	if ft.Bits() < 64 {
		conv = t.Map(ft.Round)
	}
	blocks, data := refBlocks(conv, bs)
	tr := transform.New(c.settings.Transform)
	vol, K := tensor.Prod(bs), len(c.keep)
	out := c.newArray(t.Shape(), blocks)
	for k := range out.N {
		block := data[k*vol : (k+1)*vol]
		refTransform(tr, block, bs, false)
		if ft.Bits() < 64 {
			for i, v := range block {
				block[i] = ft.Round(v)
			}
		}
		nk := ft.Round(maxAbs(block))
		out.N[k] = nk
		for i, pos := range c.keep {
			var idx int64
			if nk != 0 {
				if q := math.RoundToEven(c.radius * block[pos] / nk); !math.IsNaN(q) {
					idx = it.Clamp(int64(q))
				}
			}
			switch it {
			case scalar.Int8:
				out.F.i8[k*K+i] = int8(idx)
			case scalar.Int16:
				out.F.i16[k*K+i] = int16(idx)
			case scalar.Int32:
				out.F.i32[k*K+i] = int32(idx)
			default:
				out.F.i64[k*K+i] = idx
			}
		}
	}
	return out
}

// refDecompress is the old Decompress: every block rebuilt in a zeroed
// array of blocks, then unblocked.
func refDecompress(c *Compressor, a *CompressedArray) *tensor.Tensor {
	ft, bs := c.settings.FloatType, c.settings.BlockShape
	tr := transform.New(c.settings.Transform)
	vol, K := tensor.Prod(bs), len(c.keep)
	data := make([]float64, a.NumBlocks()*vol)
	f := a.indices()
	for k := 0; k < a.NumBlocks(); k++ {
		block := data[k*vol : (k+1)*vol]
		for i, pos := range c.keep {
			block[pos] = ft.Round(a.N[k] * float64(f[k*K+i]) / c.radius)
		}
		refTransform(tr, block, bs, true)
	}
	return refUnblock(a.Shape, bs, a.Blocks, data)
}

func sameTensorBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.EqualShape(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v, oracle %v", name, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		g := got.Data()[i]
		if !sameBits(g, w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

type denseConfig struct {
	name  string
	s     Settings
	shape []int
	mk    func(seed int64, shape ...int) *tensor.Tensor
}

func denseConfigs(t *testing.T) []denseConfig {
	var configs []denseConfig
	add := func(name string, s Settings, shape []int, mk func(int64, ...int) *tensor.Tensor) {
		configs = append(configs, denseConfig{name, s, shape, mk})
	}
	halfMask := func(s *Settings) {
		mask, err := KeepLowFrequency(s.BlockShape, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		s.Mask = mask
	}
	for it := scalar.Int8; it <= scalar.Int64; it++ {
		for ft := scalar.BFloat16; ft <= scalar.Float64; ft++ {
			s := DefaultSettings(4, 4)
			s.IndexType, s.FloatType = it, ft
			add(fmt.Sprintf("%v/%v", it, ft), s, []int{14, 11}, randomTensor)
			halfMask(&s)
			add(fmt.Sprintf("%v/%v/keep=0.5", it, ft), s, []int{14, 11}, randomTensor)
		}
	}
	for _, tr := range []transform.Kind{transform.DCT, transform.Haar, transform.Identity, transform.WalshHadamard} {
		s := DefaultSettings(8, 8)
		s.IndexType, s.Transform = scalar.Int8, tr
		add(fmt.Sprintf("transform=%v", tr), s, []int{29, 24}, smoothTensor)
	}
	// 1-D to 4-D, shapes that do not divide the block shape, axes the
	// unrolled kernels do not cover (1, 2, 16), masked and not.
	for _, g := range []struct{ block, shape []int }{
		{[]int{8}, []int{37}},
		{[]int{16}, []int{50}},
		{[]int{4, 8}, []int{9, 30}},
		{[]int{2, 16}, []int{7, 33}},
		{[]int{1, 8}, []int{3, 17}},
		{[]int{16, 16}, []int{20, 40}},
		{[]int{4, 4, 4}, []int{5, 9, 7}},
		{[]int{8, 8, 8}, []int{9, 8, 17}},
		{[]int{2, 2, 2, 2}, []int{3, 5, 2, 7}},
		{[]int{4, 2, 4, 8}, []int{5, 3, 4, 9}},
	} {
		s := DefaultSettings(g.block...)
		add(fmt.Sprintf("block=%v", g.block), s, g.shape, randomTensor)
		if tensor.Prod(g.block) > 1 {
			halfMask(&s)
			s.IndexType = scalar.Int8
			add(fmt.Sprintf("block=%v/keep=0.5", g.block), s, g.shape, smoothTensor)
		}
	}
	// Enough blocks (17·18 = 306 ≥ the 256-block serial cutoff) for
	// ParallelFor to fan out: workers scatter into one shared tensor, each
	// reusing its block buffer across a masked frame's blocks.
	{
		s := DefaultSettings(8, 8)
		s.IndexType = scalar.Int8
		add("fan-out", s, []int{131, 140}, smoothTensor)
		halfMask(&s)
		add("fan-out/keep=0.5", s, []int{131, 140}, smoothTensor)
	}
	// Signed zeros, a block of −0, and a float16 block that overflows to
	// Inf (so Decompress carries NaN through the inverse transform).
	special := func(seed int64, shape ...int) *tensor.Tensor {
		x := randomTensor(seed, shape...)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				x.Data()[x.Offset([]int{i, j})] = 60000
				x.Data()[x.Offset([]int{i, j + 4})] = math.Copysign(0, -1)
			}
		}
		x.Data()[x.Offset([]int{5, 1})] = math.Copysign(0, -1)
		x.Data()[x.Offset([]int{6, 2})] = 0
		return x
	}
	for _, ft := range []scalar.FloatType{scalar.Float16, scalar.BFloat16, scalar.Float64} {
		s := DefaultSettings(4, 4)
		s.FloatType, s.IndexType = ft, scalar.Int8
		add(fmt.Sprintf("special/%v", ft), s, []int{10, 13}, special)
	}
	return configs
}

func TestDensePathMatchesOracle(t *testing.T) {
	for _, cfg := range denseConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			c := mustCompressor(t, cfg.s)
			x := cfg.mk(1, cfg.shape...)
			input := append([]float64(nil), x.Data()...)
			got := compress(t, c, x)
			for i, v := range input {
				if !sameBits(x.Data()[i], v) {
					t.Fatalf("Compress changed its input at %d", i)
				}
			}
			want := refCompress(c, x)
			if !tensor.EqualShape(got.Shape, want.Shape) || !tensor.EqualShape(got.Blocks, want.Blocks) {
				t.Fatalf("geometry %v/%v, oracle %v/%v", got.Shape, got.Blocks, want.Shape, want.Blocks)
			}
			if !bytes.Equal(mustEncode(t, got), mustEncode(t, want)) {
				checkVector(t, "N", got.N, want.N)
				for i := 0; i < want.F.Len(); i++ {
					if got.F.At(i) != want.F.At(i) {
						t.Fatalf("F[%d] = %d, oracle %d", i, got.F.At(i), want.F.At(i))
					}
				}
				t.Fatal("Encode(Compress(t)) differs from the oracle's stream")
			}
			full := decompress(t, c, got)
			sameTensorBits(t, "Decompress", full, refDecompress(c, got))

			// DecompressRegion ≡ crop of Decompress, for the whole array,
			// single cells, and random regions — some ending in the
			// last, partly padded blocks.
			rng := rand.New(rand.NewSource(int64(len(cfg.name))))
			d := len(cfg.shape)
			for trial := 0; trial < 24; trial++ {
				off, shape := make([]int, d), make([]int, d)
				for a := range off {
					switch {
					case trial == 0: // everything
						shape[a] = cfg.shape[a]
					case trial%3 == 1: // ends at the array's edge
						off[a] = rng.Intn(cfg.shape[a])
						shape[a] = cfg.shape[a] - off[a]
					default:
						off[a] = rng.Intn(cfg.shape[a])
						shape[a] = 1 + rng.Intn(cfg.shape[a]-off[a])
					}
				}
				region, err := c.DecompressRegion(got, off, shape)
				if err != nil {
					t.Fatal(err)
				}
				crop := tensor.New(shape...)
				idx, src := make([]int, d), make([]int, d)
				for {
					for a := range idx {
						src[a] = off[a] + idx[a]
					}
					crop.Data()[crop.Offset(idx)] = full.Data()[full.Offset(src)]
					if !tensor.NextIndex(idx, shape) {
						break
					}
				}
				sameTensorBits(t, fmt.Sprintf("DecompressRegion(%v, %v)", off, shape), region, crop)
			}
		})
	}
}
