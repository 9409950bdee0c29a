// Package codec defines the pluggable compressor seam of the repository:
// a uniform Codec interface over the paper's primary compressor
// (internal/core, "goblaz") and its three comparators (blaz, szsim,
// zfpsim), plus a registry that constructs any backend from a spec string
// such as
//
//	goblaz:block=8x8,float=float64,index=int8
//	blaz
//	sz:mode=curvefit,tol=1e-4
//	zfp:rate=16
//
// CLIs, benchmarks, figure drivers, and the series pipeline all select
// backends through this seam, so adding a compressor means writing one
// adapter and one Register call — not editing four call sites.
package codec

import (
	"errors"

	"repro/internal/tensor"
)

// ErrNotSupported reports a compressed-space entry point a backend cannot
// serve for this array without decompression (e.g. goblaz moments of a
// frame whose first coefficients were pruned). Callers — the query
// engine above all — detect it with errors.Is and fall back to
// decode-then-compute.
var ErrNotSupported = errors.New("codec: operation not supported in compressed space")

// Compressed is a codec-specific opaque compressed representation. Each
// adapter returns its backend's native type (*core.CompressedArray,
// *blaz.Compressed, ...); callers must only pass it back to the codec
// that produced it.
type Compressed interface{}

// Codec is the uniform compressor interface. Implementations are safe for
// concurrent use.
type Codec interface {
	// Name returns the registry name of the backend ("goblaz", "blaz",
	// "sz", "zfp").
	Name() string
	// Spec returns the canonical spec string that reconstructs this codec
	// via Lookup.
	Spec() string
	// Compress compresses a tensor.
	Compress(t *tensor.Tensor) (Compressed, error)
	// Decompress reconstructs a tensor from a Compressed previously
	// produced by this codec (same backend and parameters).
	Decompress(c Compressed) (*tensor.Tensor, error)
	// EncodedSize returns the serialized size of c in bytes.
	EncodedSize(c Compressed) int
}

// Arith is the optional compressed-space arithmetic sub-interface, for
// backends that combine compressed arrays element-wise without
// decompression (goblaz and blaz); MulScalar(a, −1) negates. Callers
// discover support with a type assertion:
//
//	if ar, ok := cd.(codec.Arith); ok { ... }
type Arith interface {
	Codec
	// Add returns the compressed element-wise sum a + b.
	Add(a, b Compressed) (Compressed, error)
	// MulScalar returns the compressed element-wise product x·a.
	MulScalar(a Compressed, x float64) (Compressed, error)
}

// Ops is the optional compressed-space reduction sub-interface (goblaz):
// the pairwise-metric entry points the query engine (internal/query)
// plans against, and one entry point per aggregate. The engine answers
// aggregates through Moments instead; Mean, Variance and L2Norm remain
// for bench/'s kernel level. A backend that implements Ops but cannot
// serve one of these without decompressing must return ErrNotSupported
// from it rather than silently decoding, so callers can account
// full-decompression cost honestly (the executedInCompressedSpace flag in
// query results).
type Ops interface {
	Codec
	// Mean returns the element mean of the array a decompresses to.
	Mean(a Compressed) (float64, error)
	// Variance returns the population variance of the array a
	// decompresses to.
	Variance(a Compressed) (float64, error)
	// L2Norm returns the L2 norm of the array a decompresses to.
	L2Norm(a Compressed) (float64, error)
	// Dot returns the dot product of the arrays a and b decompress to.
	Dot(a, b Compressed) (float64, error)
	// MSE returns the mean squared error between the arrays a and b
	// decompress to.
	MSE(a, b Compressed) (float64, error)
	// PSNR returns the peak signal-to-noise ratio in dB between a and b
	// given the data's peak value; +Inf for identical arrays.
	PSNR(a, b Compressed, peak float64) (float64, error)
	// CosineSimilarity returns Dot(a,b)/(‖a‖₂·‖b‖₂).
	CosineSimilarity(a, b Compressed) (float64, error)
}

// RegionReader is the optional partial-decompression sub-interface, for
// block-coded backends that can recover an axis-aligned sub-region by
// decompressing only the blocks that overlap it (goblaz; see
// core.DecompressRegion). The query engine reads regions — and points,
// as regions of unit shape — through it when present and falls back to
// full decode plus crop when not.
type RegionReader interface {
	Codec
	// DecompressRegion decompresses the region of c starting at offset
	// (inclusive) with the given shape.
	DecompressRegion(c Compressed, offset, shape []int) (*tensor.Tensor, error)
}

// Extrema is the optional compressed-space extrema sub-interface, for
// backends that can find an array's smallest and largest element without
// decompressing all of it (goblaz: per-block bounds, then only the blocks
// that can hold an extreme; see core.Compressor.Extrema). The query
// engine answers min and max through it when present and decodes when
// not.
type Extrema interface {
	Codec
	// Extrema returns the smallest and largest element of the array c
	// decompresses to, bit-identical to a scan of Decompress(c) — or
	// ErrNotSupported when this frame needs that scan.
	Extrema(c Compressed) (lo, hi float64, err error)
}

// Moments is the optional compressed-space moments sub-interface, for
// backends that can read an array's element count, element sum and sum
// of squares from one pass over its compressed form (goblaz: block sums
// from each block's first coefficient, Σ Ĉ² from all of them; see
// core.Compressor.Moments). Mean, variance, stddev and the L2 norm all
// derive from these three, as does a frame's share of a dataset-level
// reduction; the query engine answers them through Moments when present
// and decodes when not.
type Moments interface {
	Codec
	// Moments returns the element count n, the element sum and the sum of
	// squares of the array c decompresses to — or ErrNotSupported when
	// this frame needs a decode to know them.
	Moments(c Compressed) (n int, sum, sumSq float64, err error)
}

// Shaper is the optional shape-introspection sub-interface, for
// backends whose compressed representation records the array shape (all
// four built-ins). It lets callers learn a frame's shape without
// decompressing it. The query engine reads a frame's element count from
// Moments instead.
type Shaper interface {
	Codec
	// Shape returns the shape of the array c decompresses to.
	Shape(c Compressed) ([]int, error)
}

// Coder is a Codec whose compressed form round-trips through bytes.
// Every registered codec is one: a Factory returns a Coder, so Lookup
// hands back a codec a store can write and read without a check.
type Coder interface {
	Codec
	// Encode serializes c.
	Encode(c Compressed) ([]byte, error)
	// Decode reverses Encode. Implementations must not retain data or
	// alias it from the returned Compressed, so callers may reuse data
	// once Decode returns (bench/'s kernel level decodes pooled scratch).
	// Served paths decode through TimedDecodeView instead.
	Decode(data []byte) (Compressed, error)
}

// ViewDecoder is the optional zero-copy decode sub-interface (goblaz,
// sz, zfp): Decode whose result may alias data instead of copying it. It
// is for callers whose bytes outlive the result and are never written
// while it is in use — a read-only store mapping, or a payload read for
// this one decode — never for pooled scratch. Operations on the result
// only read the aliased bytes, and what they return owns its memory.
// TimedDecodeView falls back to Decode for a Coder without it.
type ViewDecoder interface {
	Coder
	// DecodeView is Decode, except that the result may alias data.
	DecodeView(data []byte) (Compressed, error)
}
