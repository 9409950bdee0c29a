// Package szsim implements an SZ-like error-bounded lossy compressor for
// 1- to 3-dimensional float64 arrays, following the pipeline the paper
// attributes to SZ (§II-A(b)): a Lorenzo/linear prediction model predicts
// each element from its already-decoded neighbours, residuals are
// quantized against an absolute error bound, and the quantization codes
// are Huffman-coded. Elements whose residual exceeds the quantization
// range are stored verbatim ("unpredictable" values), so the point-wise
// absolute error bound holds for every element.
package szsim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/tensor"
)

// quantCapacity is the number of quantization codes on each side of zero.
// Codes span [−quantCapacity, quantCapacity]; symbol 0 marks
// "unpredictable".
const quantCapacity = 32767

// Settings configures the compressor.
type Settings struct {
	// ErrorBound is the absolute point-wise error bound (> 0).
	ErrorBound float64
}

// Compressed holds an SZ-compressed array.
type Compressed struct {
	Shape      []int
	ErrorBound float64
	// Stream holds the Huffman code-length table, the coded symbols, and
	// the verbatim unpredictable values.
	Stream []byte
}

// Compress compresses t so that every element of the decompressed array
// differs from the input by at most the error bound.
func Compress(t *tensor.Tensor, s Settings) (*Compressed, error) {
	if s.ErrorBound <= 0 || math.IsNaN(s.ErrorBound) || math.IsInf(s.ErrorBound, 0) {
		return nil, fmt.Errorf("szsim: error bound %g must be a positive finite number", s.ErrorBound)
	}
	d := t.Dims()
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("szsim: %d-dimensional arrays unsupported (1..3)", d)
	}
	data := t.Data()
	shape := t.Shape()
	n := len(data)

	// First pass: predict against the progressively reconstructed array,
	// producing one symbol per element plus a list of raw values.
	recon := make([]float64, n)
	symbols := make([]int, n) // 0 = unpredictable, else code + quantCapacity (1..2·cap+1)
	var raws []float64
	eb2 := 2 * s.ErrorBound
	idx := make([]int, d)
	for i := 0; i < n; i++ {
		pred := lorenzo(recon, shape, idx)
		code := math.RoundToEven((data[i] - pred) / eb2)
		if math.Abs(code) <= quantCapacity && !math.IsNaN(code) {
			c := int(code)
			r := pred + float64(c)*eb2
			// Guard against floating-point drift past the bound.
			if math.Abs(r-data[i]) <= s.ErrorBound {
				symbols[i] = c + quantCapacity + 1
				recon[i] = r
				tensor.NextIndex(idx, shape)
				continue
			}
		}
		symbols[i] = 0
		raws = append(raws, data[i])
		recon[i] = data[i]
		tensor.NextIndex(idx, shape)
	}

	// Second pass: Huffman-code the symbols.
	freqs := make([]int, 2*quantCapacity+2)
	for _, s := range symbols {
		freqs[s]++
	}
	hc, err := bits.BuildHuffman(freqs)
	if err != nil {
		return nil, err
	}

	var w bits.Writer
	// Code-length table: count of distinct symbols, then (symbol, length)
	// pairs — sparse, since most codes cluster near zero.
	distinct := 0
	for _, f := range freqs {
		if f > 0 {
			distinct++
		}
	}
	w.WriteBits(uint64(distinct), 32)
	for sym, f := range freqs {
		if f > 0 {
			w.WriteBits(uint64(sym), 17)
			w.WriteBits(uint64(hc.Lengths[sym]), 6)
		}
	}
	w.WriteBits(uint64(len(raws)), 64)
	for _, s := range symbols {
		if err := hc.Encode(&w, s); err != nil {
			return nil, err
		}
	}
	for _, v := range raws {
		w.WriteBits(math.Float64bits(v), 64)
	}
	return &Compressed{
		Shape:      append([]int(nil), shape...),
		ErrorBound: s.ErrorBound,
		Stream:     w.Bytes(),
	}, nil
}

// Decompress reconstructs the array to within the error bound.
func Decompress(a *Compressed) (*tensor.Tensor, error) {
	d := len(a.Shape)
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("szsim: bad shape %v", a.Shape)
	}
	r := bits.NewReader(a.Stream)
	distinct, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	if distinct == 0 || distinct > 2*quantCapacity+2 {
		return nil, errors.New("szsim: corrupt symbol table")
	}
	lengths := make([]uint8, 2*quantCapacity+2)
	for i := uint64(0); i < distinct; i++ {
		sym, err := r.ReadBits(17)
		if err != nil {
			return nil, err
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		if sym >= uint64(len(lengths)) {
			return nil, errors.New("szsim: symbol out of range")
		}
		lengths[sym] = uint8(l)
	}
	hc, err := bits.NewHuffmanFromLengths(lengths)
	if err != nil {
		return nil, err
	}
	rawCount, err := r.ReadBits(64)
	if err != nil {
		return nil, err
	}
	out := tensor.New(a.Shape...)
	data := out.Data()
	n := len(data)
	if rawCount > uint64(n) {
		return nil, errors.New("szsim: corrupt raw count")
	}
	symbols := make([]int, n)
	for i := 0; i < n; i++ {
		s, err := hc.Decode(r)
		if err != nil {
			return nil, err
		}
		symbols[i] = s
	}
	raws := make([]float64, rawCount)
	for i := range raws {
		v, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		raws[i] = math.Float64frombits(v)
	}
	eb2 := 2 * a.ErrorBound
	idx := make([]int, d)
	rawPos := 0
	for i := 0; i < n; i++ {
		if symbols[i] == 0 {
			if rawPos >= len(raws) {
				return nil, errors.New("szsim: raw values exhausted")
			}
			data[i] = raws[rawPos]
			rawPos++
		} else {
			pred := lorenzo(data, a.Shape, idx)
			data[i] = pred + float64(symbols[i]-quantCapacity-1)*eb2
		}
		tensor.NextIndex(idx, a.Shape)
	}
	return out, nil
}

// lorenzo predicts element idx from its already-visited neighbours using
// the Lorenzo predictor of the matching dimensionality: 1 term in 1-D,
// 3 terms in 2-D, 7 terms in 3-D. Out-of-range neighbours contribute 0.
func lorenzo(data []float64, shape, idx []int) float64 {
	switch len(shape) {
	case 1:
		return at(data, shape, idx[0]-1)
	case 2:
		return at2(data, shape, idx[0]-1, idx[1]) +
			at2(data, shape, idx[0], idx[1]-1) -
			at2(data, shape, idx[0]-1, idx[1]-1)
	default:
		return at3(data, shape, idx[0]-1, idx[1], idx[2]) +
			at3(data, shape, idx[0], idx[1]-1, idx[2]) +
			at3(data, shape, idx[0], idx[1], idx[2]-1) -
			at3(data, shape, idx[0]-1, idx[1]-1, idx[2]) -
			at3(data, shape, idx[0]-1, idx[1], idx[2]-1) -
			at3(data, shape, idx[0], idx[1]-1, idx[2]-1) +
			at3(data, shape, idx[0]-1, idx[1]-1, idx[2]-1)
	}
}

func at(data []float64, shape []int, i int) float64 {
	if i < 0 {
		return 0
	}
	return data[i]
}

func at2(data []float64, shape []int, i, j int) float64 {
	if i < 0 || j < 0 {
		return 0
	}
	return data[i*shape[1]+j]
}

func at3(data []float64, shape []int, i, j, k int) float64 {
	if i < 0 || j < 0 || k < 0 {
		return 0
	}
	return data[(i*shape[1]+j)*shape[2]+k]
}

// CompressedSizeBytes returns the stream size.
func (a *Compressed) CompressedSizeBytes() int { return len(a.Stream) }
