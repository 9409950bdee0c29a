package core

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"repro/internal/bits"
	"repro/internal/tensor"
)

// Compress runs the five-step pipeline of §III-A on t and returns the
// compressed array {s, i, N, F}. Each worker gathers one block at a time
// straight from t into its own block buffer, transforms and bins it: no
// converted copy of t and no blocked copy of t is ever held.
//
// Reduced precision is emulated bit-exactly: the input is rounded through
// the configured float type as it is blocked, and each block's transform
// coefficients and biggest coefficient N are rounded through it again, so
// the overflow-to-Inf and NaN behaviour the paper observes for float16 and
// bfloat16 (Fig. 5) is reproduced in software.
func (c *Compressor) Compress(t *tensor.Tensor) (*CompressedArray, error) {
	if t.Dims() != len(c.settings.BlockShape) {
		return nil, fmt.Errorf("core: tensor has %d dims, block shape %v has %d",
			t.Dims(), c.settings.BlockShape, len(c.settings.BlockShape))
	}
	out := c.newArray(t.Shape(), tensor.CeilDiv(t.Shape(), c.settings.BlockShape))
	c.k.compressBlocks(c, t, out)
	return out, nil
}

// newArray returns a zeroed compressed array of the given geometry under
// c's settings, with N and F allocated (F at the index width).
func (c *Compressor) newArray(shape, blocks []int) *CompressedArray {
	numBlocks := tensor.Prod(blocks)
	out := &CompressedArray{
		Shape:    append([]int(nil), shape...),
		Blocks:   append([]int(nil), blocks...),
		N:        make([]float64, numBlocks),
		Settings: c.Settings(),
	}
	c.k.alloc(&out.F, numBlocks*len(c.keep))
	return out
}

// blockBuf is one worker's scratch: a block, whatever the transform plan
// needs beside it, and the words of marks the plan's sparse inverse takes
// (InverseOccupied), zero between blocks.
type blockBuf struct {
	block, scratch []float64
	occ            []uint64
}

// blockBuffer returns one worker's scratch, in one allocation: the marks
// are the words of its tail (wordsOf).
func (c *Compressor) blockBuffer() blockBuf {
	vol, s := c.plan.Vol(), c.plan.Scratch()
	buf := make([]float64, vol+s+c.plan.MarkWords())
	return blockBuf{block: buf[:vol:vol], scratch: buf[vol : vol+s : vol+s], occ: wordsOf(buf[vol+s:])}
}

// compressBlocks runs the pipeline on every block of t: conversion and
// blocking (zero-padded to block-shape multiples) in the gather, then the
// orthonormal transform, binning and pruning.
func (w width[T]) compressBlocks(c *Compressor, t *tensor.Tensor, out *CompressedArray) {
	K := len(c.keep)
	ft := c.settings.FloatType
	f := w.of(out)
	tensor.ParallelFor(len(out.N), func(start, end int) {
		buf := c.blockBuffer()
		block, scratch := buf.block, buf.scratch
		cur := tensor.NewBlockCursor(out.Blocks, c.settings.BlockShape, nil, out.Shape)
		for k := start; k < end; k++ {
			cur.Gather(block, t.Data(), k)
			ft.RoundSlice(block)
			c.plan.Forward(block, scratch)
			// Emulate computing the transform in the reduced precision.
			ft.RoundSlice(block)
			// Binning: N_k = ‖C_k‖∞ over the whole block (§III-A(d)),
			// pruned positions included.
			nk := ft.Round(maxAbs(block))
			out.N[k] = nk
			// Pruning, in place: keep is ascending, so position i is read
			// before it is overwritten.
			if K < len(block) {
				for i, pos := range c.keep {
					block[i] = block[pos]
				}
			}
			bin(c, f[k*K:(k+1)*K], block[:K], nk)
		}
	})
}

// maxAbs returns ‖v‖∞, NaN if any element is.
func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m || math.IsNaN(a) {
			m = a
		}
	}
	return m
}

// bin writes I = int(round(r·C ⊘ N)) for one block's kept coefficients,
// clamped to [−r, r].
func bin[T bits.Signed](c *Compressor, dst []T, coeffs []float64, nk float64) {
	if nk == 0 {
		clear(dst)
		return
	}
	it := c.settings.IndexType
	for i, v := range coeffs {
		q := math.RoundToEven(c.radius * v / nk)
		if math.IsNaN(q) {
			// N_k overflowed to Inf in reduced precision; the index is
			// unrecoverable, store 0 (decompression will reproduce the
			// NaN/Inf through N).
			dst[i] = 0
			continue
		}
		dst[i] = T(it.Clamp(int64(q)))
	}
}

// Decompress inverts the pipeline: scale F by N, inverse transform,
// unblock, crop to the original shape (§III-B). Each worker rebuilds one
// block at a time in its own block buffer and scatters it into the result,
// which is the only array-sized allocation.
func (c *Compressor) Decompress(a *CompressedArray) (*tensor.Tensor, error) {
	if err := c.checkOwned(a); err != nil {
		return nil, err
	}
	out := tensor.New(a.Shape...)
	// Blocks are disjoint in out, so workers share it without locking.
	tensor.ParallelFor(a.NumBlocks(), func(start, end int) {
		buf := c.blockBuffer()
		cur := tensor.NewBlockCursor(a.Blocks, c.settings.BlockShape, nil, a.Shape)
		at := c.cursor(a)
		at.seek(start)
		for k := start; k < end; k++ {
			c.k.inverseBlock(c, a, at.next(), buf)
			cur.Scatter(out.Data(), buf.block, k)
		}
	})
	return out, nil
}

// inverseBlock reconstructs block s of a in buf.block: scale its indices
// by N_k (Algorithm 3), then invert the transform. The block may hold
// anything; the positions the mask pruned are zeroed here, and a masked
// block's left-out positions hold Round(N_k·0/r). Under a plain N_k those
// are +0, so a masked block is inverted from the positions its mask
// holds, marked through c.keep as its run is written — the plan's
// InverseOccupied, the same outputs bit for bit, which does nothing for
// an empty mask.
func (w width[T]) inverseBlock(c *Compressor, a *CompressedArray, s span, buf blockBuf) {
	ft, r, nk := c.settings.FloatType, c.radius, a.N[s.k]
	block := buf.block
	f := w.of(a)[s.off:s.end]
	if s.at < 0 {
		if len(c.keep) < len(block) {
			clear(block)
		}
		for i, pos := range c.keep {
			block[pos] = ft.Round(nk * float64(f[i]) / r)
		}
		c.plan.Inverse(block, buf.scratch)
		return
	}
	clear(block)
	sparse := plain(nk)
	if !sparse {
		z := ft.Round(nk * 0 / r)
		for _, pos := range c.keep {
			block[pos] = z
		}
	}
	K, j := len(c.keep), 0
	for base := 0; base < K; base += 64 {
		m := s.word(a.occ, base, K)
		switch {
		case sparse && K == len(block): // kept position i is block position i
			buf.occ[base>>6] = mathbits.Reverse64(m)
		case sparse:
			for u := m; u != 0; u &= u - 1 {
				pos := c.keep[base+63-mathbits.TrailingZeros64(u)]
				buf.occ[pos>>6] |= 1 << uint(pos&63)
			}
		}
		for ; m != 0; j++ {
			lz := mathbits.LeadingZeros64(m)
			m &^= 1 << 63 >> uint(lz)
			block[c.keep[base+lz]] = ft.Round(nk * float64(f[j]) / r)
		}
	}
	if sparse {
		c.plan.InverseOccupied(block, buf.scratch, buf.occ)
		return
	}
	c.plan.Inverse(block, buf.scratch)
}

// specifiedCoefficients implements Algorithm 3: Ĉ = N ⊙ F ⊘ r, the kept
// transform coefficients recovered from the compressed form. The result is
// block-major with K entries per block, the layout of a dense F. It is
// for callers whose result is the vector; reductions fuse the expression
// into their own pass (ops.go).
func (c *Compressor) specifiedCoefficients(a *CompressedArray) []float64 {
	K := len(c.keep)
	out := make([]float64, a.NumBlocks()*K)
	tensor.ParallelFor(a.NumBlocks(), func(start, end int) {
		cur := c.cursor(a)
		cur.seek(start)
		for k := start; k < end; k++ {
			c.k.blockCoefficients(c, a, cur.next(), out[k*K:(k+1)*K])
		}
	})
	return out
}

// blockCoefficients is Algorithm 3 for block s: its K specified
// coefficients into dst, Round(N_k·0/r) wherever a masked block's mask
// leaves a position out.
func (w width[T]) blockCoefficients(c *Compressor, a *CompressedArray, s span, dst []float64) {
	ft, r, nk := c.settings.FloatType, c.radius, a.N[s.k]
	f := w.of(a)[s.off:s.end]
	if s.at < 0 {
		for i, v := range f {
			dst[i] = ft.Round(nk * float64(v) / r)
		}
		return
	}
	z := ft.Round(nk * 0 / r)
	for i := range dst {
		dst[i] = z
	}
	K, j := len(c.keep), 0
	for base := 0; base < K; base += 64 {
		for m := s.word(a.occ, base, K); m != 0; j++ {
			lz := mathbits.LeadingZeros64(m)
			m &^= 1 << 63 >> uint(lz)
			dst[base+lz] = ft.Round(nk * float64(f[j]) / r)
		}
	}
}

// rebin converts specified coefficients back to {N, F}: the shared tail of
// Algorithms 2 and 4. N is recomputed per block as ‖Ĉ_k‖∞ and indices are
// rounded to the nearest bin. coeffs is block-major with K entries per
// block and is not retained.
func (c *Compressor) rebin(a *CompressedArray, coeffs []float64) *CompressedArray {
	K := len(c.keep)
	out := c.newArray(a.Shape, a.Blocks)
	c.k.rebinBlocks(c, out, func() func(k int, _ []float64) []float64 {
		return func(k int, _ []float64) []float64 { return coeffs[k*K : (k+1)*K] }
	})
	return out
}

// rebinBlocks fills out's N and F, every block dense, from per-block
// specified coefficients. Each worker calls worker once and then the
// function it returns for its blocks in ascending order: that returns
// block k's K coefficients, and may build them in the scratch it is
// handed, which is private to the worker like any state worker set up —
// so an operation that produces an array needs O(K) scratch, not a
// second array, and reads its operands with one cursor a worker.
func (w width[T]) rebinBlocks(c *Compressor, out *CompressedArray, worker func() func(k int, scratch []float64) []float64) {
	K := len(c.keep)
	f := w.of(out)
	tensor.ParallelFor(len(out.N), func(start, end int) {
		scratch := make([]float64, K)
		coeffsOf := worker()
		for k := start; k < end; k++ {
			coeffs := coeffsOf(k, scratch)
			nk := c.settings.FloatType.Round(maxAbs(coeffs))
			out.N[k] = nk
			bin(c, f[k*K:(k+1)*K], coeffs, nk)
		}
	})
}
