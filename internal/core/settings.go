// Package core implements the paper's primary contribution: a lossy
// compressor for arbitrary-dimensional floating-point arrays whose
// compressed representation {s, i, N, F} supports a dozen operations
// directly, without decompression (Table I of the paper).
//
// Compression follows the five-step pipeline of §III-A: data type
// conversion, blocking, orthonormal transform, binning, pruning.
// Decompression runs the steps in reverse. The loops whose blocks are
// independent — compression, decompression, and the operations that
// produce an array or a per-block tensor — are parallelized with
// tensor.ParallelFor, this repository's stand-in for the CUDA threads
// PyBlaz gets from PyTorch. The scalar reductions (Dot, L2Norm, Mean,
// Covariance and everything built on them) are single serial passes over
// N and F that allocate nothing: the summation order is part of the
// answer. On a block stored masked (stream v3 keeps only a block's
// nonzero bin indices, and a mask of where they sit) they recover only
// those, since a zero index adds exactly +0 to every sum (nonzero.go), so
// their cost follows the nonzero bins, not ∏b·K.
//
// F is held in memory at the width of the index type (an int8 stream is
// a []int8), so a decoded array is no larger than its payload; DecodeView
// of an int8 stream does not copy F or the masks at all, but reads them
// where they lie.
// Every loop over F has one generic body on width[T], picked once per
// call.
//
// The dense path — Compress, Decompress, DecompressRegion — is one fused
// pass per block and holds no frame-sized intermediate: a worker owns one
// block buffer and one tensor.BlockCursor, gathers block k straight from
// the input (or scales its indices into the buffer), applies the
// compressor's transform.Plan — the transform resolved once for the block
// shape — and bins into F (or scatters into the result). Compress
// allocates N and F; Decompress allocates the tensor it returns.
//
// Extrema sits between the two: one walk of F bounds every block, and
// only the blocks whose bound can hold the minimum or maximum go through
// Decompress's per-block code (extrema.go). It allocates the bounds and
// one block buffer.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

// Settings configures a Compressor. The zero value is not usable; obtain
// defaults from DefaultSettings.
type Settings struct {
	// BlockShape is the block shape i. Every extent must be a power of
	// two (§III-A(b)); non-hypercubic shapes are allowed.
	BlockShape []int
	// FloatType is the reduced-precision type the input is converted to
	// and in which coefficients and N are represented (§III-A(a)).
	FloatType scalar.FloatType
	// IndexType is the integer bin-index type (§III-A(d)).
	IndexType scalar.IndexType
	// Transform selects the orthonormal transform (§III-A(c)); DCT is the
	// paper's default.
	Transform transform.Kind
	// Mask is the pruning mask P, shaped like BlockShape and flattened
	// row-major: true keeps the coefficient at that intrablock position.
	// nil keeps everything (§III-A(e)).
	Mask []bool
}

// DefaultSettings returns the settings used throughout the paper's MRI
// experiment unless stated otherwise: the given block shape, float32,
// int16, DCT, no pruning.
func DefaultSettings(blockShape ...int) Settings {
	return Settings{
		BlockShape: blockShape,
		FloatType:  scalar.Float32,
		IndexType:  scalar.Int16,
		Transform:  transform.DCT,
	}
}

// Validate checks the settings for internal consistency.
func (s Settings) Validate() error {
	if !tensor.ValidBlockShape(s.BlockShape) {
		return fmt.Errorf("core: block shape %v must be non-empty powers of two", s.BlockShape)
	}
	if !s.FloatType.Valid() {
		return fmt.Errorf("core: invalid float type %d", s.FloatType)
	}
	if !s.IndexType.Valid() {
		return fmt.Errorf("core: invalid index type %d", s.IndexType)
	}
	if !s.Transform.Valid() {
		return fmt.Errorf("core: invalid transform %d", s.Transform)
	}
	if s.Mask != nil {
		if len(s.Mask) != tensor.Prod(s.BlockShape) {
			return fmt.Errorf("core: mask length %d does not match block volume %d",
				len(s.Mask), tensor.Prod(s.BlockShape))
		}
		any := false
		for _, keep := range s.Mask {
			if keep {
				any = true
				break
			}
		}
		if !any {
			return errors.New("core: mask prunes every coefficient")
		}
	}
	return nil
}

// kept returns K, the number of coefficients per block the mask keeps.
func (s Settings) kept() int {
	if s.Mask == nil {
		return tensor.Prod(s.BlockShape)
	}
	n := 0
	for _, keep := range s.Mask {
		if keep {
			n++
		}
	}
	return n
}

// equal reports whether two settings produce interoperable compressed
// arrays.
func (s Settings) equal(o Settings) bool {
	if !tensor.EqualShape(s.BlockShape, o.BlockShape) ||
		s.FloatType != o.FloatType || s.IndexType != o.IndexType ||
		s.Transform != o.Transform {
		return false
	}
	if (s.Mask == nil) != (o.Mask == nil) {
		return false
	}
	for i := range s.Mask {
		if s.Mask[i] != o.Mask[i] {
			return false
		}
	}
	return true
}

// Compressor compresses and decompresses tensors and evaluates the
// compressed-space operations. It is safe for concurrent use.
type Compressor struct {
	settings Settings
	plan     *transform.Plan // the transform resolved for settings.BlockShape
	keep     []int           // intrablock positions kept by the mask, ascending
	peak     []float64       // max |basis function| of each kept position (extrema.go)
	k        kernels         // the F-touching loops at settings.IndexType's width
	radius   float64
	// sqrtVol is c = √(∏i), the scale between a block's first coefficient
	// and its mean (§IV-A3).
	sqrtVol float64
}

// NewCompressor validates the settings and returns a Compressor.
func NewCompressor(s Settings) (*Compressor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.BlockShape = append([]int(nil), s.BlockShape...)
	if s.Mask != nil {
		s.Mask = append([]bool(nil), s.Mask...)
	}
	vol := tensor.Prod(s.BlockShape)
	keep := make([]int, 0, vol)
	for pos := 0; pos < vol; pos++ {
		if s.Mask == nil || s.Mask[pos] {
			keep = append(keep, pos)
		}
	}
	tr := transform.New(s.Transform)
	return &Compressor{
		settings: s,
		plan:     tr.Plan(s.BlockShape),
		keep:     keep,
		peak:     basisPeaks(tr, s.BlockShape, keep),
		k:        byIndexType[s.IndexType],
		radius:   float64(s.IndexType.Radius()),
		sqrtVol:  math.Sqrt(float64(vol)),
	}, nil
}

// Settings returns a copy of the compressor's settings.
func (c *Compressor) Settings() Settings {
	s := c.settings
	s.BlockShape = append([]int(nil), s.BlockShape...)
	if s.Mask != nil {
		s.Mask = append([]bool(nil), s.Mask...)
	}
	return s
}

// firstKept returns the position of intrablock coefficient 0 in the kept
// list, or -1 if the mask pruned it or the transform lacks the
// constant-first-basis-vector property. Operations that need block means
// (mean, covariance, Wasserstein, SSIM, scalar addition) require both:
// the first coefficient must be kept AND equal the block mean scaled by
// √(∏i), which holds for DCT, Haar and Walsh–Hadamard but not for the
// identity transform (its first basis vector is e₀, not the constant).
func (c *Compressor) firstKept() int {
	if c.settings.Transform == transform.Identity {
		return -1
	}
	if len(c.keep) > 0 && c.keep[0] == 0 {
		return 0
	}
	return -1
}

// ErrFirstPruned is returned by operations that need the first (mean)
// coefficient when the pruning mask removed it or the transform does not
// expose the block mean in it. Callers detect it with errors.Is: the
// codec adapter reports it as codec.ErrNotSupported, so the query engine
// decodes such a frame instead of failing the request.
var ErrFirstPruned = errors.New("core: operation requires the first (mean) coefficient: it was pruned, or the transform's first basis vector is not constant")
