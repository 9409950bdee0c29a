package codec

import (
	"fmt"

	"repro/internal/baseline/zfpsim"
	"repro/internal/tensor"
)

func init() {
	Register("zfp", newZFP)
}

// zfpCodec adapts the fixed-rate ZFP-like compressor. Spec parameters:
//
//	rate=16    compressed bits per array element (1..64); 8, 16 and 32
//	           give ratios 8, 4 and 2 versus float64 input
type zfpCodec struct {
	settings zfpsim.Settings
}

func newZFP(p Params) (Coder, error) {
	rate, err := p.TakeInt("rate", 16)
	if err != nil {
		return nil, err
	}
	if rate < 1 || rate > 64 {
		return nil, fmt.Errorf("codec: zfp rate %d out of range 1..64", rate)
	}
	return zfpCodec{settings: zfpsim.Settings{BitsPerValue: rate}}, nil
}

func (z zfpCodec) Name() string { return "zfp" }

func (z zfpCodec) Spec() string {
	return fmt.Sprintf("zfp:rate=%d", z.settings.BitsPerValue)
}

func (z zfpCodec) arr(c Compressed) (*zfpsim.Compressed, error) {
	a, ok := c.(*zfpsim.Compressed)
	if !ok {
		return nil, fmt.Errorf("codec: zfp given foreign compressed type %T", c)
	}
	return a, nil
}

func (z zfpCodec) Compress(t *tensor.Tensor) (Compressed, error) {
	return zfpsim.Compress(t, z.settings)
}

func (z zfpCodec) Decompress(c Compressed) (*tensor.Tensor, error) {
	a, err := z.arr(c)
	if err != nil {
		return nil, err
	}
	return zfpsim.Decompress(a)
}

func (z zfpCodec) EncodedSize(c Compressed) int {
	a, err := z.arr(c)
	if err != nil {
		return 0
	}
	return len(a.Payload)
}

func (z zfpCodec) Shape(c Compressed) ([]int, error) {
	a, err := z.arr(c)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), a.Shape...), nil
}

func (z zfpCodec) Encode(c Compressed) ([]byte, error) {
	a, err := z.arr(c)
	if err != nil {
		return nil, err
	}
	return zfpsim.Encode(a)
}

func (zfpCodec) Decode(data []byte) (Compressed, error) {
	return zfpsim.Decode(data)
}

func (zfpCodec) DecodeView(data []byte) (Compressed, error) {
	return zfpsim.DecodeView(data)
}
