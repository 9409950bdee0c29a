package codec

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

func init() {
	Register("goblaz", newGoblaz)
}

// goblazCodec adapts internal/core — the paper's compressor — to the
// Codec interface. It implements Arith and Ops (all of Table I),
// Moments, Extrema, Coder and ViewDecoder.
type goblazCodec struct {
	c    *core.Compressor
	spec string
}

// newGoblaz builds the paper's compressor from spec parameters:
//
//	block=4x4        block shape, x-separated powers of two
//	float=float32    bfloat16|float16|float32|float64 (bf16/fp16/... aliases)
//	index=int16      int8|int16|int32|int64
//	transform=dct    dct|haar|walsh-hadamard|identity
//	keep=1           fraction of low-frequency coefficients kept, (0,1]
func newGoblaz(p Params) (Coder, error) {
	block, err := p.TakeInts("block", []int{4, 4})
	if err != nil {
		return nil, err
	}
	s := core.Settings{BlockShape: block}
	floatName, _ := p.Take("float")
	if floatName == "" {
		floatName = "float32"
	}
	if s.FloatType, err = scalar.ParseFloatType(floatName); err != nil {
		return nil, err
	}
	indexName, _ := p.Take("index")
	if indexName == "" {
		indexName = "int16"
	}
	if s.IndexType, err = scalar.ParseIndexType(indexName); err != nil {
		return nil, err
	}
	trName, _ := p.Take("transform")
	if trName == "" {
		trName = "dct"
	}
	if s.Transform, err = transform.ParseKind(trName); err != nil {
		return nil, err
	}
	keep, err := p.TakeFloat("keep", 1)
	if err != nil {
		return nil, err
	}
	if keep <= 0 || keep > 1 {
		return nil, fmt.Errorf("codec: goblaz keep fraction %g out of (0, 1]", keep)
	}
	if keep < 1 {
		if s.Mask, err = core.KeepLowFrequency(block, keep); err != nil {
			return nil, err
		}
	}
	c, err := core.NewCompressor(s)
	if err != nil {
		return nil, err
	}
	return &goblazCodec{c: c, spec: goblazSpec(s, keep)}, nil
}

// goblazSpec emits the canonical spec: parameters in sorted key
// order (block, float, index, keep, transform), so codec.Canonical is
// the identity on every Spec() this adapter returns.
func goblazSpec(s core.Settings, keep float64) string {
	block := ""
	for i, e := range s.BlockShape {
		if i > 0 {
			block += "x"
		}
		block += fmt.Sprint(e)
	}
	kp := ""
	if keep < 1 {
		kp = fmt.Sprintf("keep=%g,", keep)
	}
	return fmt.Sprintf("goblaz:block=%s,float=%v,index=%v,%stransform=%v",
		block, s.FloatType, s.IndexType, kp, s.Transform)
}

func (g *goblazCodec) Name() string { return "goblaz" }
func (g *goblazCodec) Spec() string { return g.spec }

func (g *goblazCodec) arr(c Compressed) (*core.CompressedArray, error) {
	a, ok := c.(*core.CompressedArray)
	if !ok {
		return nil, fmt.Errorf("codec: goblaz given foreign compressed type %T", c)
	}
	return a, nil
}

func (g *goblazCodec) Compress(t *tensor.Tensor) (Compressed, error) {
	return g.c.Compress(t)
}

func (g *goblazCodec) Decompress(c Compressed) (*tensor.Tensor, error) {
	a, err := g.arr(c)
	if err != nil {
		return nil, err
	}
	return g.c.Decompress(a)
}

func (g *goblazCodec) EncodedSize(c Compressed) int {
	a, err := g.arr(c)
	if err != nil {
		return 0
	}
	// The exact length of the stream Encode writes — v3, which masks the
	// blocks where that is smaller, or v4, which also entropy-codes the
	// int16+ index runs where that is smaller: not the §IV-C size.
	n, err := core.EncodedSize(a)
	if err != nil {
		return 0
	}
	return n
}

func (g *goblazCodec) Add(a, b Compressed) (Compressed, error) {
	aa, err := g.arr(a)
	if err != nil {
		return nil, err
	}
	ba, err := g.arr(b)
	if err != nil {
		return nil, err
	}
	return g.c.Add(aa, ba)
}

func (g *goblazCodec) MulScalar(a Compressed, x float64) (Compressed, error) {
	aa, err := g.arr(a)
	if err != nil {
		return nil, err
	}
	return g.c.MulScalar(aa, x)
}

func (g *goblazCodec) Mean(a Compressed) (float64, error) {
	aa, err := g.arr(a)
	if err != nil {
		return 0, err
	}
	return g.c.Mean(aa)
}

func (g *goblazCodec) Variance(a Compressed) (float64, error) {
	aa, err := g.arr(a)
	if err != nil {
		return 0, err
	}
	return g.c.Variance(aa)
}

func (g *goblazCodec) L2Norm(a Compressed) (float64, error) {
	aa, err := g.arr(a)
	if err != nil {
		return 0, err
	}
	return g.c.L2Norm(aa)
}

func (g *goblazCodec) Dot(a, b Compressed) (float64, error) {
	aa, ba, err := g.pair(a, b)
	if err != nil {
		return 0, err
	}
	return g.c.Dot(aa, ba)
}

func (g *goblazCodec) MSE(a, b Compressed) (float64, error) {
	aa, ba, err := g.pair(a, b)
	if err != nil {
		return 0, err
	}
	return g.c.MSE(aa, ba)
}

func (g *goblazCodec) PSNR(a, b Compressed, peak float64) (float64, error) {
	aa, ba, err := g.pair(a, b)
	if err != nil {
		return 0, err
	}
	return g.c.PSNR(aa, ba, peak)
}

func (g *goblazCodec) CosineSimilarity(a, b Compressed) (float64, error) {
	aa, ba, err := g.pair(a, b)
	if err != nil {
		return 0, err
	}
	return g.c.CosineSimilarity(aa, ba)
}

func (g *goblazCodec) pair(a, b Compressed) (*core.CompressedArray, *core.CompressedArray, error) {
	aa, err := g.arr(a)
	if err != nil {
		return nil, nil, err
	}
	ba, err := g.arr(b)
	if err != nil {
		return nil, nil, err
	}
	return aa, ba, nil
}

func (g *goblazCodec) DecompressRegion(c Compressed, offset, shape []int) (*tensor.Tensor, error) {
	a, err := g.arr(c)
	if err != nil {
		return nil, err
	}
	return g.c.DecompressRegion(a, offset, shape)
}

func (g *goblazCodec) Extrema(c Compressed) (lo, hi float64, err error) {
	a, err := g.arr(c)
	if err != nil {
		return 0, 0, err
	}
	lo, hi, err = g.c.Extrema(a)
	if errors.Is(err, core.ErrExtremaUndecided) {
		return 0, 0, fmt.Errorf("goblaz extrema: %w: %v", ErrNotSupported, err)
	}
	return lo, hi, err
}

func (g *goblazCodec) Moments(c Compressed) (n int, sum, sumSq float64, err error) {
	a, err := g.arr(c)
	if err != nil {
		return 0, 0, 0, err
	}
	n, sum, sumSq, err = g.c.Moments(a)
	if errors.Is(err, core.ErrFirstPruned) {
		return 0, 0, 0, fmt.Errorf("goblaz moments: %w: %v", ErrNotSupported, err)
	}
	return n, sum, sumSq, err
}

func (g *goblazCodec) Shape(c Compressed) ([]int, error) {
	a, err := g.arr(c)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), a.Shape...), nil
}

func (g *goblazCodec) Encode(c Compressed) ([]byte, error) {
	a, err := g.arr(c)
	if err != nil {
		return nil, err
	}
	return core.Encode(a)
}

func (g *goblazCodec) Decode(data []byte) (Compressed, error) {
	return core.Decode(data)
}

func (g *goblazCodec) DecodeView(data []byte) (Compressed, error) {
	return core.DecodeView(data)
}
