package core

import (
	"fmt"

	"repro/internal/tensor"
)

// Partial decompression: because every block is coded independently
// (§III-A(b): blocking "allows subsequent steps ... to be performed on
// each block independently"), a sub-region of the array can be recovered
// by decompressing only the blocks that overlap it. For a region of
// volume v this costs O(v) instead of O(∏s) — the random-access benefit
// block compressors are built for.

// DecompressRegion decompresses the axis-aligned region of a starting at
// offset (inclusive) with the given shape, decompressing only overlapping
// blocks. offset and shape must describe a region inside the original
// array bounds.
func (c *Compressor) DecompressRegion(a *CompressedArray, offset, shape []int) (*tensor.Tensor, error) {
	if err := c.checkOwned(a); err != nil {
		return nil, err
	}
	d := len(a.Shape)
	if len(offset) != d || len(shape) != d {
		return nil, fmt.Errorf("core: region offset %v / shape %v must have %d dims", offset, shape, d)
	}
	for i := 0; i < d; i++ {
		if offset[i] < 0 || shape[i] <= 0 || offset[i]+shape[i] > a.Shape[i] {
			return nil, fmt.Errorf("core: region offset %v shape %v out of bounds %v", offset, shape, a.Shape)
		}
	}
	bs := c.settings.BlockShape

	// Block-index range overlapped by the region in each dimension, and
	// the odometer that walks it.
	ints := make([]int, 3*d)
	lo, hi, blockIdx := ints[:d], ints[d:2*d], ints[2*d:]
	for i := 0; i < d; i++ {
		lo[i] = offset[i] / bs[i]
		hi[i] = (offset[i] + shape[i] + bs[i] - 1) / bs[i] // exclusive
	}
	copy(blockIdx, lo)

	// The loop of Decompress over the overlapped blocks only, with the
	// scatter cropped to the region.
	out := tensor.New(shape...)
	buf := c.blockBuffer()
	cur := tensor.NewBlockCursor(a.Blocks, bs, offset, shape)
	at := c.cursor(a)
	for {
		// Flat block number in the block-major layout.
		k := 0
		for i := 0; i < d; i++ {
			k = k*a.Blocks[i] + blockIdx[i]
		}
		// The odometer visits blocks in ascending order.
		c.k.inverseBlock(c, a, at.block(k), buf)
		cur.Scatter(out.Data(), buf.block, k)

		// Advance blockIdx within [lo, hi).
		adv := d - 1
		for ; adv >= 0; adv-- {
			blockIdx[adv]++
			if blockIdx[adv] < hi[adv] {
				break
			}
			blockIdx[adv] = lo[adv]
		}
		if adv < 0 {
			break
		}
	}
	return out, nil
}
