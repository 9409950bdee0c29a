package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/scalar"
	"repro/internal/transform"
)

// Serialization of the compressed form per §IV-B/§IV-C: the float and
// integer types (4 bits), the shape s (64 bits per dimension plus an end
// marker), the block shape i, the flattened pruning mask P (∏i bits), the
// flattened N (f bits each), and F (i bits per kept index). A one-byte
// magic and the transform kind are added so streams are self-describing.
//
// Two versions of the stream exist, told apart by the magic byte:
//
//	v1 (0xB7): magic, transform, types, s, i, P, N, F, then 0–7 zero bits
//	           to the next byte.
//	v2 (0xB8): magic, transform, types, s, i, P, N, then 0–7 zero bits to
//	           the next byte, then F, ending on F's last byte.
//
// The fields and their bits are the same in both; only the pad moves.
// Every index width is 8, 16, 32 or 64 bits, so F fills whole bytes and
// moving the pad from after F to before it changes no stream's length,
// while F then starts on a byte boundary: DecodeView hands an int8 F to
// the kernels as the stream's own bytes. N is not aligned — it is
// converted to float64 once per block on every decode anyway. Encode
// writes v2 only; Decode reads both, because v1 is what stores already
// on disk hold.

const (
	magicV1 = 0xB7
	magicV2 = 0xB8
)

// maxDims bounds the number of dimensions a stream may declare.
const maxDims = 16

// shapeEnd marks the end of the shape list (the paper's "marker for the
// end of s"); no real extent is 2^64−1.
const shapeEnd = ^uint64(0)

// errIndexRange rejects the one index bit pattern binning never produces,
// −2^(b−1) (scalar.IndexType.Clamp): bins are symmetric about zero, and
// negating that index would wrap.
var errIndexRange = errors.New("core: index outside [-r, r]")

// Encode serializes a into the paper's compressed form, as a v2 stream.
func Encode(a *CompressedArray) ([]byte, error) {
	size, err := CompressedSizeBits(a.Settings, a.Shape)
	if err != nil {
		return nil, err
	}
	var w bits.Writer
	w.Grow(int(size) + 10) // the §IV-C inventory plus magic and transform
	w.WriteBits(magicV2, 8)
	w.WriteBits(uint64(a.Settings.Transform), 2)
	// The paper's 4 bits of type information: 2 for the float type, 2 for
	// the index type.
	w.WriteBits(uint64(a.Settings.FloatType), 2)
	w.WriteBits(uint64(a.Settings.IndexType), 2)
	for _, e := range a.Shape {
		w.WriteBits(uint64(e), 64)
	}
	w.WriteBits(shapeEnd, 64)
	for _, e := range a.Settings.BlockShape {
		w.WriteBits(uint64(e), 64)
	}
	// Pruning mask, ∏i bits.
	blockVol := 1
	for _, e := range a.Settings.BlockShape {
		blockVol *= e
	}
	kept := 0
	for pos := 0; pos < blockVol; pos++ {
		keep := a.Settings.Mask == nil || a.Settings.Mask[pos]
		w.WriteBool(keep)
		if keep {
			kept++
		}
	}
	// N, f bits per block.
	fbits := uint(a.Settings.FloatType.Bits())
	for _, n := range a.N {
		w.WriteBits(floatToBits(n, a.Settings.FloatType), fbits)
	}
	// v2: zero bits up to the byte F starts on.
	w.WriteBits(0, uint(-w.Len()&7))
	// F, i bits per kept index. The switch calls the generic body
	// directly rather than through kernels so w stays on the stack.
	want, it := a.NumBlocks()*kept, a.Settings.IndexType
	switch it {
	case scalar.Int8:
		err = packIndices(&w, a.F.i8, want, it)
	case scalar.Int16:
		err = packIndices(&w, a.F.i16, want, it)
	case scalar.Int32:
		err = packIndices(&w, a.F.i32, want, it)
	default:
		err = packIndices(&w, a.F.i64, want, it)
	}
	if err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func packIndices[T bits.Signed](w *bits.Writer, f []T, want int, it scalar.IndexType) error {
	if len(f) != want {
		return fmt.Errorf("core: F length %d does not match blocks×kept = %d", len(f), want)
	}
	ibits := uint(it.Bits())
	lowest := T(-it.Radius() - 1)
	for _, v := range f {
		if v == lowest {
			return errIndexRange
		}
		w.WriteBits(uint64(v), ibits)
	}
	return nil
}

// Decode parses a v1 or v2 compressed stream into a CompressedArray that
// owns all of its memory: nothing in the result aliases data.
func Decode(data []byte) (*CompressedArray, error) { return decode(data, false) }

// decode is Decode, and DecodeView when view is set.
func decode(data []byte, view bool) (*CompressedArray, error) {
	r := bits.NewReader(data)
	magic, err := r.ReadBits(8)
	if err != nil || (magic != magicV1 && magic != magicV2) {
		return nil, errors.New("core: not a goblaz compressed stream")
	}
	tk, err := r.ReadBits(2)
	if err != nil {
		return nil, err
	}
	ftv, err := r.ReadBits(2)
	if err != nil {
		return nil, err
	}
	itv, err := r.ReadBits(2)
	if err != nil {
		return nil, err
	}
	s := Settings{
		FloatType: scalar.FloatType(ftv),
		IndexType: scalar.IndexType(itv),
		Transform: transform.Kind(tk),
	}
	// The extents are read onto the stack, so that Shape, BlockShape and
	// Blocks can share one allocation once the dimension count is known.
	var ext [maxDims]int
	d := 0
	for {
		e, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		if e == shapeEnd {
			break
		}
		if e == 0 || e > 1<<40 {
			return nil, fmt.Errorf("core: implausible shape extent %d", e)
		}
		if d == maxDims {
			return nil, errors.New("core: too many dimensions")
		}
		ext[d] = int(e)
		d++
	}
	if d == 0 {
		return nil, errors.New("core: empty shape")
	}
	// Three-index slices: an append to one of them reallocates instead of
	// writing into its neighbour.
	dims := make([]int, 3*d)
	shape, blockShape, blocks := dims[0:d:d], dims[d:2*d:2*d], dims[2*d:]
	copy(shape, ext[:d])
	blockVol := 1
	for i := range blockShape {
		e, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		if e == 0 || e > 1<<20 {
			return nil, fmt.Errorf("core: implausible block extent %d", e)
		}
		// Extents are individually bounded but there can be 16 of them;
		// guard the product exactly like numBlocks below, or a crafted
		// header wraps blockVol and bypasses the Remaining() check.
		if blockVol > (1<<40)/int(e) {
			return nil, errors.New("core: implausible block volume")
		}
		blockShape[i] = int(e)
		blockVol *= int(e)
	}
	s.BlockShape = blockShape
	// The mask occupies ∏i bits; reject before allocating ∏i bools.
	if r.Remaining() < blockVol {
		return nil, fmt.Errorf("core: stream too short for %d mask bits", blockVol)
	}
	// A mask that keeps everything is nil, so it is allocated only at the
	// first pruned position, with every position before it kept.
	kept := 0
	for pos := 0; pos < blockVol; pos++ {
		b, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if !b && s.Mask == nil {
			s.Mask = make([]bool, blockVol)
			for i := range s.Mask[:pos] {
				s.Mask[i] = true
			}
		}
		if s.Mask != nil {
			s.Mask[pos] = b
		}
		if b {
			kept++
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	numBlocks := 1
	for i := range shape {
		blocks[i] = (shape[i] + blockShape[i] - 1) / blockShape[i]
		if numBlocks > (1<<40)/blocks[i] {
			return nil, errors.New("core: implausible block count")
		}
		numBlocks *= blocks[i]
	}
	// The remaining stream must hold exactly N and F; reject corrupted
	// headers before allocating anything sized by them. numBlocks ≤ 2^40
	// and kept ≤ 2^40 bound each factor but not the product, so compare
	// by division: a header claiming 2^63 bits must not wrap into range.
	blockBits := s.FloatType.Bits() + kept*s.IndexType.Bits()
	if numBlocks > r.Remaining()/blockBits {
		return nil, fmt.Errorf("core: stream too short: need %d blocks of %d bits, have %d bits",
			numBlocks, blockBits, r.Remaining())
	}
	a := &CompressedArray{
		Shape:    shape,
		Blocks:   blocks,
		N:        make([]float64, numBlocks),
		Settings: s,
	}
	fbits := uint(s.FloatType.Bits())
	for k := range a.N {
		v, err := r.ReadBits(fbits)
		if err != nil {
			return nil, err
		}
		a.N[k] = floatFromBits(v, s.FloatType)
	}
	n := numBlocks * kept
	if magic == magicV2 {
		// The pad runs to the byte boundary, and F fills the rest exactly.
		pad, err := r.ReadBits(uint(r.Remaining() & 7))
		if err != nil {
			return nil, err
		}
		if pad != 0 {
			return nil, errors.New("core: nonzero pad bits before F")
		}
		if need := n * s.IndexType.Bits(); r.Remaining() != need {
			return nil, fmt.Errorf("core: stream holds %d bits after N, F takes %d", r.Remaining(), need)
		}
		if view && s.IndexType == scalar.Int8 {
			f := data[len(data)-n:]
			if bytes.IndexByte(f, 0x80) >= 0 {
				return nil, errIndexRange
			}
			a.F.i8 = int8s(f)
			return a, nil
		}
	}
	// F is bulk-unpacked at its own width, so the decoded array holds no
	// more than the payload did. As in Encode, the switch keeps r on the
	// stack.
	switch s.IndexType {
	case scalar.Int8:
		a.F.i8, err = unpackIndices[int8](r, n, s.IndexType)
	case scalar.Int16:
		a.F.i16, err = unpackIndices[int16](r, n, s.IndexType)
	case scalar.Int32:
		a.F.i32, err = unpackIndices[int32](r, n, s.IndexType)
	default:
		a.F.i64, err = unpackIndices[int64](r, n, s.IndexType)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

func unpackIndices[T bits.Signed](r *bits.Reader, n int, it scalar.IndexType) ([]T, error) {
	f := make([]T, n)
	sawLowest, err := bits.UnpackSigned(r, f, uint(it.Bits()))
	if err != nil {
		return nil, err
	}
	if sawLowest {
		return nil, errIndexRange
	}
	return f, nil
}

func floatToBits(x float64, ft scalar.FloatType) uint64 {
	switch ft {
	case scalar.BFloat16:
		return uint64(scalar.ToBFloat16Bits(x))
	case scalar.Float16:
		return uint64(scalar.ToFloat16Bits(x))
	case scalar.Float32:
		return uint64(math.Float32bits(float32(x)))
	default:
		return math.Float64bits(x)
	}
}

func floatFromBits(v uint64, ft scalar.FloatType) float64 {
	switch ft {
	case scalar.BFloat16:
		return scalar.FromBFloat16Bits(uint16(v))
	case scalar.Float16:
		return scalar.FromFloat16Bits(uint16(v))
	case scalar.Float32:
		return float64(math.Float32frombits(uint32(v)))
	default:
		return math.Float64frombits(v)
	}
}

// CompressedSizeBits returns the exact size in bits of the §IV-C stored
// components for an array of the given shape under settings s:
// 4 (types) + 64·d (s) + 64 (end marker) + 64·d (i) + ∏i (P) +
// f·∏⌈s⊘i⌉ (N) + i·ΣP·∏⌈s⊘i⌉ (F).
func CompressedSizeBits(s Settings, shape []int) (int64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if len(shape) != len(s.BlockShape) {
		return 0, fmt.Errorf("core: shape %v does not match block shape %v", shape, s.BlockShape)
	}
	d := int64(len(shape))
	blockVol := int64(1)
	kept := int64(0)
	for _, e := range s.BlockShape {
		blockVol *= int64(e)
	}
	if s.Mask == nil {
		kept = blockVol
	} else {
		for _, keep := range s.Mask {
			if keep {
				kept++
			}
		}
	}
	numBlocks := int64(1)
	for dd := range shape {
		numBlocks *= int64((shape[dd] + s.BlockShape[dd] - 1) / s.BlockShape[dd])
	}
	f := int64(s.FloatType.Bits())
	ib := int64(s.IndexType.Bits())
	return 4 + 64*d + 64 + 64*d + blockVol + f*numBlocks + ib*kept*numBlocks, nil
}

// CompressionRatio returns the asymptotic compression ratio of §IV-C for
// u-bit input elements:
//
//	u·∏s / ((f + i·ΣP)·∏⌈s⊘i⌉)
//
// This is the data-independent ratio the paper reports (e.g. ≈2.91 for a
// (3,224,224) float64 array with (4,4,4) blocks, float32, int16, no
// pruning, and ≈10.66 with int8 and half the indices pruned).
func CompressionRatio(s Settings, shape []int, inputBits int) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if len(shape) != len(s.BlockShape) {
		return 0, fmt.Errorf("core: shape %v does not match block shape %v", shape, s.BlockShape)
	}
	volume := 1.0
	for _, e := range shape {
		volume *= float64(e)
	}
	kept := 0
	blockVol := 1
	for _, e := range s.BlockShape {
		blockVol *= e
	}
	if s.Mask == nil {
		kept = blockVol
	} else {
		for _, keep := range s.Mask {
			if keep {
				kept++
			}
		}
	}
	numBlocks := 1.0
	for d := range shape {
		numBlocks *= float64((shape[d] + s.BlockShape[d] - 1) / s.BlockShape[d])
	}
	denom := (float64(s.FloatType.Bits()) + float64(s.IndexType.Bits())*float64(kept)) * numBlocks
	return float64(inputBits) * volume / denom, nil
}
