// Package zfpsim implements a fixed-rate ZFP-like compressor for 1- to
// 3-dimensional float64 arrays — the comparator of the paper's Fig. 3.
// It follows the algorithmic stages the paper attributes to ZFP (§II-A(a)):
//
//  1. blocking into 4^d blocks,
//  2. block floating point: each block shares the exponent of its biggest
//     element, significands converted to fixed point,
//  3. a reversible integer lifting transform along every axis,
//  4. negabinary coding of the coefficients,
//  5. bit-plane encoding in decreasing order of significance, truncated to
//     a fixed per-block bit budget (fixed-rate mode, the only CUDA mode).
//
// Differences from real ZFP, documented per the reproduction rules: the
// lifting transform is a two-level reversible S-transform rather than
// ZFP's (4 4 4 4; 5 1 −1 −5; …)/16 lift, and bit planes are truncated
// rather than group-tested. Both preserve the structure relevant to the
// Fig. 3 comparison: fixed rate, block independence, O(volume) work.
package zfpsim

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"
	"sync"

	"repro/internal/bits"
	"repro/internal/tensor"
)

// BlockSide is the fixed block side length (4, as in ZFP).
const BlockSide = 4

// fixedPointBits is the target magnitude of the block-scaled integers:
// values are scaled so the biggest element is ≈2^fixedPointBits.
const fixedPointBits = 44

// headerBits is the per-block header: 16 bits of biased exponent plus 6
// bits locating the top negabinary bit plane.
const headerBits = 16 + 6

// Settings configures the fixed-rate compressor.
type Settings struct {
	// BitsPerValue is the fixed rate: total compressed bits per array
	// element. 8, 16 and 32 give the paper's ratios 8, 4 and 2 for
	// float64 input.
	BitsPerValue int
}

// Compressed holds a fixed-rate compressed array.
type Compressed struct {
	Shape    []int
	Settings Settings
	// Payload is the bit-packed concatenation of per-block streams.
	Payload []byte
}

// blockBudgetBits returns the fixed total bits per block.
func (s Settings) blockBudgetBits(blockVol int) int { return s.BitsPerValue * blockVol }

// checkRate rejects a rate outside 1..64 or one whose block budget cannot
// hold the header and one payload bit. Compress, Decompress and Decode all
// apply it: writeBlock and readBlock rely on budget ≥ headerBits+1.
func (s Settings) checkRate(blockVol int) error {
	if s.BitsPerValue < 1 || s.BitsPerValue > 64 {
		return fmt.Errorf("zfpsim: bits per value %d out of range", s.BitsPerValue)
	}
	if s.blockBudgetBits(blockVol) < headerBits+1 {
		return fmt.Errorf("zfpsim: rate %d too low for the %d-bit header", s.BitsPerValue, headerBits)
	}
	return nil
}

// cubeShape returns the d-dimensional block shape, BlockSide per axis.
func cubeShape(d int) []int {
	blockShape := make([]int, d)
	for i := range blockShape {
		blockShape[i] = BlockSide
	}
	return blockShape
}

// Compress compresses t at the fixed rate.
func Compress(t *tensor.Tensor, s Settings) (*Compressed, error) {
	d := t.Dims()
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("zfpsim: %d-dimensional arrays unsupported (1..3)", d)
	}
	blockShape := cubeShape(d)
	blockVol := tensor.Prod(blockShape)
	if err := s.checkRate(blockVol); err != nil {
		return nil, err
	}
	blocks := tensor.CeilDiv(t.Shape(), blockShape)
	numBlocks := tensor.Prod(blocks)

	// Fixed rate is what makes ZFP parallelizable (and is the only CUDA
	// mode, per the paper's Fig. 3 caption): every block's bit offset is
	// known in advance, so each ParallelFor chunk encodes its blocks into
	// one pre-sized stream and the chunks are joined in block order.
	budget := s.blockBudgetBits(blockVol)
	type chunk struct {
		start int
		w     bits.Writer
	}
	var (
		mu     sync.Mutex
		chunks []*chunk
	)
	tensor.ParallelFor(numBlocks, func(start, end int) {
		c := &chunk{start: start}
		c.w.Grow((end - start) * budget)
		block := make([]float64, blockVol)
		ints := make([]int64, blockVol)
		cur := tensor.NewBlockCursor(blocks, blockShape, nil, t.Shape())
		for k := start; k < end; k++ {
			cur.Gather(block, t.Data(), k)
			writeBlock(&c.w, block, blockShape, ints, budget)
		}
		mu.Lock()
		chunks = append(chunks, c)
		mu.Unlock()
	})
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].start < chunks[j].start })
	w := &chunks[0].w
	w.Grow(numBlocks*budget - w.Len())
	for _, c := range chunks[1:] {
		w.AppendBits(c.w.Bytes(), c.w.Len())
	}
	return &Compressed{
		Shape:    append([]int(nil), t.Shape()...),
		Settings: s,
		Payload:  w.Bytes(),
	}, nil
}

// writeBlock appends exactly budget bits for one block. ints is scratch
// of the block's volume; budget must be at least headerBits+1.
func writeBlock(w *bits.Writer, block []float64, blockShape []int, ints []int64, budget int) {
	// Block floating point: shared exponent of the biggest element.
	maxAbs := 0.0
	for _, v := range block {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		// Zero (or non-finite, which we degrade to zero) block: a zero
		// exponent field means "empty block"; the rest of the fixed rate
		// is padding.
		pad(w, budget)
		return
	}
	_, e := math.Frexp(maxAbs) // maxAbs = f·2^e, f ∈ [0.5, 1)
	// e+16384 fits in 15 bits; bit 15 is set to distinguish the header
	// from the zero-block sentinel.
	w.WriteBits(uint64(e+16384)|(1<<15), 16)
	scale := math.Ldexp(1, fixedPointBits-e)
	for i, v := range block {
		ints[i] = int64(math.RoundToEven(v * scale))
	}
	// Reversible lifting along each axis.
	forwardLift(ints, blockShape)
	// Negabinary, in place, and top-plane location.
	top := 0
	for i, v := range ints {
		nb := bits.ToNegabinary(v)
		ints[i] = int64(nb)
		if b := mathbits.Len64(nb); b > top {
			top = b
		}
	}
	if top == 0 {
		top = 1
	}
	w.WriteBits(uint64(top), 6)
	// Bit planes, most significant first, one word each (a block has at
	// most 4³ = 64 values), the last one truncated at the fixed budget.
	left := budget - headerBits
	for plane := top - 1; plane >= 0 && left > 0; plane-- {
		var word uint64
		for _, v := range ints {
			word = word<<1 | uint64(v)>>uint(plane)&1
		}
		n := len(ints)
		if n > left {
			word >>= uint(n - left)
			n = left
		}
		w.WriteBits(word, uint(n))
		left -= n
	}
	pad(w, left)
}

// pad appends n zero bits.
func pad(w *bits.Writer, n int) {
	for ; n >= 64; n -= 64 {
		w.WriteBits(0, 64)
	}
	w.WriteBits(0, uint(n))
}

// Decompress reconstructs the array.
func Decompress(a *Compressed) (*tensor.Tensor, error) {
	d := len(a.Shape)
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("zfpsim: bad shape %v", a.Shape)
	}
	blockShape := cubeShape(d)
	blockVol := tensor.Prod(blockShape)
	if err := a.Settings.checkRate(blockVol); err != nil {
		return nil, err
	}
	blocks := tensor.CeilDiv(a.Shape, blockShape)
	budget := a.Settings.blockBudgetBits(blockVol)

	// One block at a time through a block buffer, scattered straight into
	// the result.
	out := tensor.New(a.Shape...)
	r := bits.NewReader(a.Payload)
	block := make([]float64, blockVol)
	ints := make([]int64, blockVol)
	cur := tensor.NewBlockCursor(blocks, blockShape, nil, a.Shape)
	for k := 0; k < tensor.Prod(blocks); k++ {
		if err := readBlock(r, block, blockShape, ints, budget); err != nil {
			return nil, err
		}
		cur.Scatter(out.Data(), block, k)
	}
	return out, nil
}

// readBlock consumes exactly budget bits and rebuilds one block. ints is
// scratch of the block's volume; budget must be at least headerBits+1.
func readBlock(r *bits.Reader, block []float64, blockShape []int, ints []int64, budget int) error {
	head, err := r.ReadBits(16)
	if err != nil {
		return err
	}
	if head == 0 {
		clear(block)
		return skip(r, budget-16)
	}
	e := int(head&0x7FFF) - 16384
	topBits, err := r.ReadBits(6)
	if err != nil {
		return err
	}
	// Each plane arrives as one word and is peeled from its top bit; the
	// negabinary words build up in ints.
	clear(ints)
	left := budget - headerBits
	for plane := int(topBits) - 1; plane >= 0 && left > 0; plane-- {
		n := min(len(ints), left)
		word, err := r.ReadBits(uint(n))
		if err != nil {
			return err
		}
		word <<= uint(64 - n)
		for i := 0; i < n; i++ {
			ints[i] |= int64(word >> 63 << uint(plane))
			word <<= 1
		}
		left -= n
	}
	if err := skip(r, left); err != nil {
		return err
	}
	for i, v := range ints {
		ints[i] = bits.FromNegabinary(uint64(v))
	}
	inverseLift(ints, blockShape)
	scale := math.Ldexp(1, e-fixedPointBits)
	for i := range block {
		block[i] = float64(ints[i]) * scale
	}
	return nil
}

// skip consumes n bits.
func skip(r *bits.Reader, n int) error {
	for ; n > 64; n -= 64 {
		if _, err := r.ReadBits(64); err != nil {
			return err
		}
	}
	_, err := r.ReadBits(uint(n))
	return err
}

// --- reversible integer lifting (two-level S-transform per axis) ---

// st is the forward S-transform pair step: exactly invertible in integers.
func st(a, b int64) (l, h int64) {
	h = a - b
	l = b + (h >> 1)
	return l, h
}

// ist inverts st.
func ist(l, h int64) (a, b int64) {
	b = l - (h >> 1)
	a = h + b
	return a, b
}

// forwardLift applies the two-level S-transform along every axis of a
// 4-per-side block (axis 0 first), ordering outputs [LL, HL, H0, H1] per
// line so that significance decreases with index.
func forwardLift(v []int64, blockShape []int) {
	for d := 0; d < len(blockShape); d++ {
		eachLine(blockShape, d, func(idx [4]int) {
			x0, x1, x2, x3 := v[idx[0]], v[idx[1]], v[idx[2]], v[idx[3]]
			l0, h0 := st(x0, x1)
			l1, h1 := st(x2, x3)
			ll, hl := st(l0, l1)
			v[idx[0]], v[idx[1]], v[idx[2]], v[idx[3]] = ll, hl, h0, h1
		})
	}
}

// inverseLift inverts forwardLift, undoing the axes in reverse order —
// integer lifting steps along different axes do not commute.
func inverseLift(v []int64, blockShape []int) {
	for d := len(blockShape) - 1; d >= 0; d-- {
		eachLine(blockShape, d, func(idx [4]int) {
			ll, hl, h0, h1 := v[idx[0]], v[idx[1]], v[idx[2]], v[idx[3]]
			l0, l1 := ist(ll, hl)
			x0, x1 := ist(l0, h0)
			x2, x3 := ist(l1, h1)
			v[idx[0]], v[idx[1]], v[idx[2]], v[idx[3]] = x0, x1, x2, x3
		})
	}
}

// eachLine visits every length-4 line along axis d of the block, passing
// the four flat indices of each line.
func eachLine(blockShape []int, d int, fn func(idx [4]int)) {
	vol := tensor.Prod(blockShape)
	stride := 1
	for dd := d + 1; dd < len(blockShape); dd++ {
		stride *= blockShape[dd]
	}
	L := blockShape[d]
	outerCount := vol / (L * stride)
	for outer := 0; outer < outerCount; outer++ {
		base := outer * L * stride
		for inner := 0; inner < stride; inner++ {
			o := base + inner
			fn([4]int{o, o + stride, o + 2*stride, o + 3*stride})
		}
	}
}
