package tensor

import "fmt"

// Blocked is a tensor reorganized into contiguous blocks: the blocking step
// of the compression pipeline (§III-A(b) of the paper). Block k occupies
// Data[k·blockVol : (k+1)·blockVol] in row-major order within the block,
// and blocks themselves are ordered row-major by block index.
type Blocked struct {
	// Shape is the original (uncropped) array shape s.
	Shape []int
	// BlockShape is the block shape i.
	BlockShape []int
	// Blocks is the block-count shape b = ⌈s ⊘ i⌉.
	Blocks []int
	// Data holds all blocks contiguously; its length is ∏b · ∏i.
	Data []float64
}

// NumBlocks returns the total number of blocks ∏b.
func (b *Blocked) NumBlocks() int { return Prod(b.Blocks) }

// BlockVol returns the number of elements per block ∏i.
func (b *Blocked) BlockVol() int { return Prod(b.BlockShape) }

// Block returns the slice holding block k (not a copy).
func (b *Blocked) Block(k int) []float64 {
	v := b.BlockVol()
	return b.Data[k*v : (k+1)*v]
}

// ValidBlockShape reports whether every extent of i is a power of two, the
// restriction the paper places on block shapes.
func ValidBlockShape(i []int) bool {
	for _, e := range i {
		if e <= 0 || e&(e-1) != 0 {
			return false
		}
	}
	return len(i) > 0
}

// BlockTensor pads t with zeros to a multiple of blockShape in every
// dimension and gathers it into contiguous blocks.
func BlockTensor(t *Tensor, blockShape []int) *Blocked {
	if len(blockShape) != t.Dims() {
		panic(fmt.Sprintf("tensor: block shape %v does not match tensor dims %d", blockShape, t.Dims()))
	}
	for _, e := range blockShape {
		if e <= 0 {
			panic(fmt.Sprintf("tensor: invalid block shape %v", blockShape))
		}
	}
	s := t.Shape()
	blocks := CeilDiv(s, blockShape)
	out := &Blocked{
		Shape:      append([]int(nil), s...),
		BlockShape: append([]int(nil), blockShape...),
		Blocks:     blocks,
		Data:       make([]float64, Prod(blocks)*Prod(blockShape)),
	}
	cur := NewBlockCursor(blocks, blockShape, nil, s)
	for k := 0; k < out.NumBlocks(); k++ {
		cur.Gather(out.Block(k), t.data, k)
	}
	return out
}

// Unblock scatters the blocks back into a dense tensor and crops to the
// original shape. It is the exact inverse of BlockTensor.
func (b *Blocked) Unblock() *Tensor {
	out := New(b.Shape...)
	cur := NewBlockCursor(b.Blocks, b.BlockShape, nil, b.Shape)
	for k := 0; k < b.NumBlocks(); k++ {
		cur.Scatter(out.data, b.Block(k), k)
	}
	return out
}

// BlockCursor moves single blocks between their contiguous form and a
// dense row-major window of the blocked array: the whole array for
// compression and decompression, a sub-region for partial decompression.
// It visits block k as runs along the last axis and moves each run with
// one copy, so no element is addressed through a multi-index. A cursor
// holds per-block state: each goroutine makes its own.
type BlockCursor struct {
	vol int // ∏ block
	// Geometry, d ints each, carved from one allocation with the state.
	block  []int // block shape i
	blocks []int // block counts b of the blocked array
	off    []int // window origin in array coordinates
	win    []int // window shape
	// State of the block last located.
	lo  []int // first in-window cell, in block coordinates
	wlo []int // the same cell in window coordinates
	n   []int // in-window extent along each axis
	idx []int // odometer over axes 0..d-3; idx[d-2] and idx[d-1] stay 0
}

// NewBlockCursor returns a cursor over an array cut into blocks[a] blocks
// of blockShape[a] along each axis a, moving data to and from the window
// of the given shape whose origin is at offset in array coordinates (nil
// for the array's own origin). The window may end short of the blocks —
// that is the zero padding Gather fills and Scatter crops.
func NewBlockCursor(blocks, blockShape, offset, shape []int) BlockCursor {
	d := len(blockShape)
	if len(blocks) != d || len(shape) != d || (offset != nil && len(offset) != d) {
		panic(fmt.Sprintf("tensor: cursor dims mismatch: blocks %v, block shape %v, offset %v, window %v",
			blocks, blockShape, offset, shape))
	}
	ints := make([]int, 8*d)
	part := func(i int) []int { return ints[i*d : (i+1)*d : (i+1)*d] }
	c := BlockCursor{
		vol:   Prod(blockShape),
		block: part(0), blocks: part(1), off: part(2), win: part(3),
		lo: part(4), wlo: part(5), n: part(6), idx: part(7),
	}
	copy(c.block, blockShape)
	copy(c.blocks, blocks)
	copy(c.off, offset)
	copy(c.win, shape)
	return c
}

// Gather copies block k out of the window src into dst (length ∏i),
// zero-filling the cells that fall outside the window.
func (c *BlockCursor) Gather(dst, src []float64, k int) {
	if !c.locate(k) {
		clear(dst)
	}
	c.move(dst, src, false)
}

// Scatter copies the cells of block k (src, length ∏i) that fall inside
// the window into dst, dropping the rest.
func (c *BlockCursor) Scatter(dst, src []float64, k int) {
	c.locate(k)
	c.move(src, dst, true)
}

// locate intersects block k with the window, leaving the intersection in
// lo, wlo and n (n[a] = 0 for some a when it is empty). It reports whether
// the block lies wholly inside the window.
func (c *BlockCursor) locate(k int) (inside bool) {
	inside = true
	for a := len(c.block) - 1; a >= 0; a-- {
		origin := k % c.blocks[a] * c.block[a]
		k /= c.blocks[a]
		lo := max(origin, c.off[a])
		hi := min(origin+c.block[a], c.off[a]+c.win[a])
		c.lo[a], c.wlo[a], c.n[a] = lo-origin, lo-c.off[a], max(hi-lo, 0)
		if c.n[a] != c.block[a] {
			inside = false
		}
	}
	return inside
}

// move copies the located intersection run by run: window → block, or
// block → window when scatter is set. Consecutive runs along the
// second-to-last axis are a fixed step apart in both; only the axes before
// it are walked by the odometer.
func (c *BlockCursor) move(block, window []float64, scatter bool) {
	if len(block) != c.vol {
		panic(fmt.Sprintf("tensor: block length %d does not match block shape %v", len(block), c.block))
	}
	for _, n := range c.n {
		if n == 0 {
			return
		}
	}
	last := len(c.block) - 1
	run, rows := c.n[last], 1
	if last > 0 {
		rows = c.n[last-1]
	}
	clear(c.idx)
	for {
		bo, wo := 0, 0
		for a := 0; a < last; a++ {
			bo = (bo + c.lo[a] + c.idx[a]) * c.block[a+1]
			wo = (wo + c.wlo[a] + c.idx[a]) * c.win[a+1]
		}
		bo += c.lo[last]
		wo += c.wlo[last]
		for r := 0; r < rows; r++ {
			if scatter {
				copy(window[wo:wo+run], block[bo:bo+run])
			} else {
				copy(block[bo:bo+run], window[wo:wo+run])
			}
			bo += c.block[last]
			wo += c.win[last]
		}
		a := last - 2
		for ; a >= 0; a-- {
			c.idx[a]++
			if c.idx[a] < c.n[a] {
				break
			}
			c.idx[a] = 0
		}
		if a < 0 {
			return
		}
	}
}
