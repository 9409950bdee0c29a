package core

import (
	"fmt"
	"slices"

	"repro/internal/bits"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

// CompressedArray is the compressed form of §III-B: the original shape s,
// the block shape i (carried in Settings), the biggest coefficient N per
// block, and the flattened kept bin indices F. It is self-describing: it
// carries the settings it was produced with so it can be serialized and
// validated against the operating compressor.
type CompressedArray struct {
	// Shape is the original array shape s.
	Shape []int
	// Blocks is the block-count shape b = ⌈s ⊘ i⌉.
	Blocks []int
	// N holds the biggest coefficient magnitude per block, rounded to the
	// configured float type; length ∏b.
	N []float64
	// F holds the kept bin indices, block-major then kept-position order;
	// length ∏b · K where K is the number of kept coefficients per block.
	// It is held at the width of Settings.IndexType, so the in-memory form
	// is no larger than the stored one. In an array from DecodeView it may
	// be the stream's own bytes, so it is never written in place.
	F Indices
	// Settings records the compression settings used.
	Settings Settings
}

// NumBlocks returns the total number of blocks ∏b.
func (a *CompressedArray) NumBlocks() int { return tensor.Prod(a.Blocks) }

// Kept returns the number of kept coefficients per block.
func (a *CompressedArray) Kept() int {
	if a.NumBlocks() == 0 {
		return 0
	}
	return a.F.Len() / a.NumBlocks()
}

// PaddedShape returns the zero-padded shape b⊙i the blocks tile.
func (a *CompressedArray) PaddedShape() []int {
	return tensor.Mul(a.Blocks, a.Settings.BlockShape)
}

// PaddedLen returns ∏(b⊙i), the number of elements in the padded domain.
func (a *CompressedArray) PaddedLen() int { return tensor.Prod(a.PaddedShape()) }

// OriginalLen returns ∏s.
func (a *CompressedArray) OriginalLen() int { return tensor.Prod(a.Shape) }

// Clone returns a deep copy.
func (a *CompressedArray) Clone() *CompressedArray {
	c := &CompressedArray{
		Shape:    append([]int(nil), a.Shape...),
		Blocks:   append([]int(nil), a.Blocks...),
		N:        append([]float64(nil), a.N...),
		F:        a.F.clone(),
		Settings: a.Settings,
	}
	c.Settings.BlockShape = append([]int(nil), a.Settings.BlockShape...)
	if a.Settings.Mask != nil {
		c.Settings.Mask = append([]bool(nil), a.Settings.Mask...)
	}
	return c
}

// Indices is the index array F, stored at the width of the index type
// that produced it: of the four slices exactly the one Settings.IndexType
// names is in use, the others stay nil. The hot paths reach the typed
// slice through width[T]; Len, At and Equal serve tests and cold paths.
type Indices struct {
	i8  []int8
	i16 []int16
	i32 []int32
	i64 []int64
}

// Len returns the number of indices.
func (f Indices) Len() int { return len(f.i8) + len(f.i16) + len(f.i32) + len(f.i64) }

// At returns index i widened to int64.
func (f Indices) At(i int) int64 {
	switch {
	case f.i8 != nil:
		return int64(f.i8[i])
	case f.i16 != nil:
		return int64(f.i16[i])
	case f.i32 != nil:
		return int64(f.i32[i])
	}
	return f.i64[i]
}

// Equal reports whether f and g hold the same indices at the same width.
func (f Indices) Equal(g Indices) bool {
	return slices.Equal(f.i8, g.i8) && slices.Equal(f.i16, g.i16) &&
		slices.Equal(f.i32, g.i32) && slices.Equal(f.i64, g.i64)
}

func (f Indices) clone() Indices {
	return Indices{slices.Clone(f.i8), slices.Clone(f.i16), slices.Clone(f.i32), slices.Clone(f.i64)}
}

// negate flips every index in place, so it runs only on a clone: F may be
// a read-only view (DecodeView). Decode, Compress and rebin never admit
// −2^(b−1), so no index wraps.
func (f Indices) negate() {
	negate(f.i8)
	negate(f.i16)
	negate(f.i32)
	negate(f.i64)
}

func negate[T bits.Signed](f []T) {
	for i, v := range f {
		f[i] = -v
	}
}

// kernels is everything a Compressor does to F element by element. Each
// method has one generic body, on width[T]; a call picks the instance for
// its index type once — per operation, or per block for inverseBlock and
// blockCoefficients — and then runs a loop over a typed slice. (Encode
// and Decode, which have no Compressor, switch on the index type
// themselves — see serialize.go.)
type kernels interface {
	alloc(f *Indices, n int)
	compressBlocks(c *Compressor, t *tensor.Tensor, out *CompressedArray)
	inverseBlock(c *Compressor, a *CompressedArray, k int, block, scratch []float64)
	blockCoefficients(c *Compressor, a *CompressedArray, k int, dst []float64)
	rebinBlocks(c *Compressor, out *CompressedArray, coeffsOf func(k int, scratch []float64) []float64)
	combine(c *Compressor, a, b *CompressedArray, sign float64) *CompressedArray
	blockSums(c *Compressor, a *CompressedArray, dst []float64) float64
	blockBounds(c *Compressor, a *CompressedArray, dst []float64) (top, bot int, ok bool)
	sumSquares(c *Compressor, a *CompressedArray) float64
	moments(c *Compressor, a *CompressedArray) (sum, sumSq float64)
	dot3(c *Compressor, a, b *CompressedArray) (ab, aa, bb float64)
	blockCovariances(c *Compressor, a, b *CompressedArray, dst []float64)
}

// width implements kernels for index type T; slot names the slice of an
// Indices that holds T.
type width[T bits.Signed] struct {
	slot func(*Indices) *[]T
}

// byIndexType is indexed by scalar.IndexType.
var byIndexType = [...]kernels{
	scalar.Int8:  width[int8]{func(f *Indices) *[]int8 { return &f.i8 }},
	scalar.Int16: width[int16]{func(f *Indices) *[]int16 { return &f.i16 }},
	scalar.Int32: width[int32]{func(f *Indices) *[]int32 { return &f.i32 }},
	scalar.Int64: width[int64]{func(f *Indices) *[]int64 { return &f.i64 }},
}

// alloc makes f hold n zero indices of width T. It takes the destination
// rather than returning one so the Indices never lives outside the
// CompressedArray it belongs to.
func (w width[T]) alloc(f *Indices, n int) { *w.slot(f) = make([]T, n) }

// of returns a's indices as their typed slice.
func (w width[T]) of(a *CompressedArray) []T { return *w.slot(&a.F) }

// checkOwned verifies a was produced with this compressor's settings.
func (c *Compressor) checkOwned(a *CompressedArray) error {
	if !c.settings.equal(a.Settings) {
		return fmt.Errorf("core: compressed array settings %v/%v/%v do not match compressor %v/%v/%v",
			a.Settings.BlockShape, a.Settings.FloatType, a.Settings.IndexType,
			c.settings.BlockShape, c.settings.FloatType, c.settings.IndexType)
	}
	return nil
}

// checkPair verifies a and b are interoperable: same settings and shape,
// as required by the binary operations of Table I.
func (c *Compressor) checkPair(a, b *CompressedArray) error {
	if err := c.checkOwned(a); err != nil {
		return err
	}
	if err := c.checkOwned(b); err != nil {
		return err
	}
	if !tensor.EqualShape(a.Shape, b.Shape) {
		return fmt.Errorf("core: shape mismatch %v vs %v", a.Shape, b.Shape)
	}
	return nil
}
