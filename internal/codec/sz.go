package codec

import (
	"fmt"
	"math"

	"repro/internal/baseline/szsim"
	"repro/internal/tensor"
)

func init() {
	Register("sz", newSZ)
}

// szCodec adapts the SZ-like error-bounded compressor. Spec parameters:
//
//	tol=1e-4        absolute point-wise error bound (> 0)
//	mode=lorenzo    lorenzo (SZ-2 style prediction) | curvefit (SZ-1 style)
type szCodec struct {
	settings szsim.Settings
	curveFit bool
}

func newSZ(p Params) (Coder, error) {
	tol, err := p.TakeFloat("tol", 1e-4)
	if err != nil {
		return nil, err
	}
	if tol <= 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("codec: sz tol %g must be a positive finite number", tol)
	}
	mode, ok := p.Take("mode")
	if !ok {
		mode = "lorenzo"
	}
	switch mode {
	case "lorenzo", "curvefit":
	default:
		return nil, fmt.Errorf("codec: sz mode %q must be lorenzo or curvefit", mode)
	}
	return szCodec{
		settings: szsim.Settings{ErrorBound: tol},
		curveFit: mode == "curvefit",
	}, nil
}

func (s szCodec) Name() string { return "sz" }

func (s szCodec) Spec() string {
	mode := "lorenzo"
	if s.curveFit {
		mode = "curvefit"
	}
	return fmt.Sprintf("sz:mode=%s,tol=%g", mode, s.settings.ErrorBound)
}

func (s szCodec) arr(c Compressed) (*szsim.Compressed, error) {
	a, ok := c.(*szsim.Compressed)
	if !ok {
		return nil, fmt.Errorf("codec: sz given foreign compressed type %T", c)
	}
	return a, nil
}

func (s szCodec) Compress(t *tensor.Tensor) (Compressed, error) {
	if s.curveFit {
		return szsim.CompressCurveFit(t, s.settings)
	}
	return szsim.Compress(t, s.settings)
}

func (s szCodec) Decompress(c Compressed) (*tensor.Tensor, error) {
	a, err := s.arr(c)
	if err != nil {
		return nil, err
	}
	if s.curveFit {
		return szsim.DecompressCurveFit(a)
	}
	return szsim.Decompress(a)
}

func (s szCodec) EncodedSize(c Compressed) int {
	a, err := s.arr(c)
	if err != nil {
		return 0
	}
	return a.CompressedSizeBytes()
}

func (s szCodec) Shape(c Compressed) ([]int, error) {
	a, err := s.arr(c)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), a.Shape...), nil
}

func (s szCodec) Encode(c Compressed) ([]byte, error) {
	a, err := s.arr(c)
	if err != nil {
		return nil, err
	}
	return szsim.Encode(a)
}

func (szCodec) Decode(data []byte) (Compressed, error) {
	return szsim.Decode(data)
}

func (szCodec) DecodeView(data []byte) (Compressed, error) {
	return szsim.DecodeView(data)
}
