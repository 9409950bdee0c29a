package codec

import (
	"fmt"

	"repro/internal/baseline/blaz"
	"repro/internal/tensor"
)

func init() {
	Register("blaz", newBlaz)
}

// blazCodec adapts the sequential Blaz reimplementation. Blaz is fully
// parameterized by its paper (8×8 blocks, int8 bins, 6×6 pruning), so the
// spec takes no parameters. It compresses 2-D tensors only and implements
// Arith, the operations the original supports (add, scalar multiply, and
// negate as multiply by −1). Its compressed form (a first-element base
// plus binned DCTs of the 2-D differentiated residual, per block) answers
// no aggregate or metric without reconstruction, so it has no Ops and
// the query engine decodes it.
type blazCodec struct{}

func newBlaz(p Params) (Coder, error) {
	return blazCodec{}, nil
}

func (blazCodec) Name() string { return "blaz" }
func (blazCodec) Spec() string { return "blaz" }

func (blazCodec) arr(c Compressed) (*blaz.Compressed, error) {
	a, ok := c.(*blaz.Compressed)
	if !ok {
		return nil, fmt.Errorf("codec: blaz given foreign compressed type %T", c)
	}
	return a, nil
}

func (blazCodec) Compress(t *tensor.Tensor) (Compressed, error) {
	if t.Dims() != 2 {
		return nil, fmt.Errorf("codec: blaz compresses 2-D arrays only, got %d-D", t.Dims())
	}
	shape := t.Shape()
	return blaz.Compress(t.Data(), shape[0], shape[1])
}

func (b blazCodec) Decompress(c Compressed) (*tensor.Tensor, error) {
	a, err := b.arr(c)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(blaz.Decompress(a), a.Rows, a.Cols), nil
}

func (b blazCodec) EncodedSize(c Compressed) int {
	a, err := b.arr(c)
	if err != nil {
		return 0
	}
	return (a.CompressedSizeBits() + 7) / 8
}

func (b blazCodec) Add(x, y Compressed) (Compressed, error) {
	xa, err := b.arr(x)
	if err != nil {
		return nil, err
	}
	ya, err := b.arr(y)
	if err != nil {
		return nil, err
	}
	return blaz.Add(xa, ya)
}

func (b blazCodec) MulScalar(x Compressed, s float64) (Compressed, error) {
	xa, err := b.arr(x)
	if err != nil {
		return nil, err
	}
	return blaz.MulScalar(xa, s), nil
}

func (b blazCodec) Shape(c Compressed) ([]int, error) {
	a, err := b.arr(c)
	if err != nil {
		return nil, err
	}
	return []int{a.Rows, a.Cols}, nil
}

func (b blazCodec) Encode(c Compressed) ([]byte, error) {
	a, err := b.arr(c)
	if err != nil {
		return nil, err
	}
	return blaz.Encode(a)
}

func (blazCodec) Decode(data []byte) (Compressed, error) {
	return blaz.Decode(data)
}
