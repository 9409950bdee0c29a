package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// oracleBlockTensor and oracleUnblock are BlockTensor and Unblock as they
// were before the cursor: one element at a time through a multi-index and
// Tensor.Offset. They stay as the reference for the run-wise moves.
func oracleBlockTensor(t *Tensor, blockShape []int) *Blocked {
	s := t.Shape()
	blocks := CeilDiv(s, blockShape)
	blockVol := Prod(blockShape)
	numBlocks := Prod(blocks)
	out := &Blocked{
		Shape:      append([]int(nil), s...),
		BlockShape: append([]int(nil), blockShape...),
		Blocks:     blocks,
		Data:       make([]float64, numBlocks*blockVol),
	}
	d := t.Dims()
	blockIdx := make([]int, d)
	inner := make([]int, d)
	src := make([]int, d)
	for k := 0; k < numBlocks; k++ {
		dst := out.Block(k)
		for i := range inner {
			inner[i] = 0
		}
		pos := 0
		for {
			inRange := true
			for dd := 0; dd < d; dd++ {
				src[dd] = blockIdx[dd]*blockShape[dd] + inner[dd]
				if src[dd] >= s[dd] {
					inRange = false
				}
			}
			if inRange {
				dst[pos] = t.data[t.Offset(src)]
			}
			pos++
			if !NextIndex(inner, blockShape) {
				break
			}
		}
		NextIndex(blockIdx, blocks)
	}
	return out
}

func oracleUnblock(b *Blocked) *Tensor {
	out := New(b.Shape...)
	d := len(b.Shape)
	blockIdx := make([]int, d)
	inner := make([]int, d)
	dst := make([]int, d)
	numBlocks := b.NumBlocks()
	for k := 0; k < numBlocks; k++ {
		src := b.Block(k)
		for i := range inner {
			inner[i] = 0
		}
		pos := 0
		for {
			inRange := true
			for dd := 0; dd < d; dd++ {
				dst[dd] = blockIdx[dd]*b.BlockShape[dd] + inner[dd]
				if dst[dd] >= b.Shape[dd] {
					inRange = false
				}
			}
			if inRange {
				out.data[out.Offset(dst)] = src[pos]
			}
			pos++
			if !NextIndex(inner, b.BlockShape) {
				break
			}
		}
		NextIndex(blockIdx, b.Blocks)
	}
	return out
}

var cursorCases = []struct{ shape, block []int }{
	{[]int{1}, []int{4}},
	{[]int{13}, []int{4}},
	{[]int{16}, []int{8}},
	{[]int{9, 7}, []int{4, 4}},
	{[]int{16, 24}, []int{8, 8}},
	{[]int{5, 11}, []int{8, 2}},
	{[]int{3, 3}, []int{1, 8}},
	{[]int{6, 5, 7}, []int{4, 4, 4}},
	{[]int{8, 8, 8}, []int{8, 8, 8}},
	{[]int{3, 9, 2}, []int{2, 4, 1}},
	{[]int{3, 5, 2, 7}, []int{2, 2, 2, 2}},
	{[]int{4, 1, 6, 3}, []int{4, 2, 4, 4}},
}

func randomTensor(rng *rand.Rand, shape []int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64()
	}
	return t
}

func TestBlockTensorAndUnblockMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cursorCases {
		x := randomTensor(rng, tc.shape)
		got, want := BlockTensor(x, tc.block), oracleBlockTensor(x, tc.block)
		if !EqualShape(got.Blocks, want.Blocks) || !EqualShape(got.Shape, want.Shape) || !EqualShape(got.BlockShape, want.BlockShape) {
			t.Fatalf("%v/%v: geometry %v %v %v, oracle %v %v %v", tc.shape, tc.block,
				got.Shape, got.BlockShape, got.Blocks, want.Shape, want.BlockShape, want.Blocks)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%v/%v: blocked[%d] = %g, oracle %g", tc.shape, tc.block, i, got.Data[i], want.Data[i])
			}
		}
		// Unblock must crop: fill the padding with something a correct
		// scatter never copies.
		filled := oracleBlockTensor(New(tc.shape...).Fill(1), tc.block)
		for i := range got.Data {
			if filled.Data[i] == 0 {
				got.Data[i] = math.NaN()
			}
		}
		back, wantBack := got.Unblock(), oracleUnblock(got)
		for i := range wantBack.data {
			if math.Float64bits(back.data[i]) != math.Float64bits(wantBack.data[i]) || back.data[i] != x.data[i] {
				t.Fatalf("%v/%v: unblocked[%d] = %g, oracle %g, input %g", tc.shape, tc.block, i,
					back.data[i], wantBack.data[i], x.data[i])
			}
		}
	}
}

// A reused block buffer must come out of Gather with its padding zeroed,
// whatever the previous block left there.
func TestCursorGatherClearsStalePadding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range cursorCases {
		x := randomTensor(rng, tc.shape)
		want := oracleBlockTensor(x, tc.block)
		cur := NewBlockCursor(want.Blocks, tc.block, nil, tc.shape)
		buf := make([]float64, want.BlockVol())
		for k := 0; k < want.NumBlocks(); k++ {
			for i := range buf {
				buf[i] = math.Inf(1)
			}
			cur.Gather(buf, x.data, k)
			for i, v := range want.Block(k) {
				if buf[i] != v {
					t.Fatalf("%v/%v block %d cell %d = %g, oracle %g", tc.shape, tc.block, k, i, buf[i], v)
				}
			}
		}
	}
}

// A cursor over a sub-window moves exactly the cells of the window: the
// region scatter of partial decompression, and its mirror-image gather.
func TestCursorWindowMatchesCrop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range cursorCases {
		x := randomTensor(rng, tc.shape)
		blocked := oracleBlockTensor(x, tc.block)
		d := len(tc.shape)
		for trial := 0; trial < 20; trial++ {
			off, shape := make([]int, d), make([]int, d)
			for a := range off {
				off[a] = rng.Intn(tc.shape[a])
				shape[a] = 1 + rng.Intn(tc.shape[a]-off[a])
			}
			// The window, cell by cell.
			want := New(shape...)
			idx, src := make([]int, d), make([]int, d)
			for {
				for a := range idx {
					src[a] = off[a] + idx[a]
				}
				want.data[want.Offset(idx)] = x.data[x.Offset(src)]
				if !NextIndex(idx, shape) {
					break
				}
			}
			got := New(shape...).Fill(math.Inf(-1))
			cur := NewBlockCursor(blocked.Blocks, tc.block, off, shape)
			buf := make([]float64, blocked.BlockVol())
			for k := 0; k < blocked.NumBlocks(); k++ {
				cur.Scatter(got.data, blocked.Block(k), k)
				// Gathering the window back gives the block with every
				// cell outside the window zeroed.
				cur.Gather(buf, want.data, k)
				for i, v := range buf {
					if v != 0 && v != blocked.Block(k)[i] {
						t.Fatalf("%v/%v window %v+%v: gathered block %d cell %d = %g, block holds %g",
							tc.shape, tc.block, off, shape, k, i, v, blocked.Block(k)[i])
					}
				}
			}
			for i := range want.data {
				if got.data[i] != want.data[i] {
					t.Fatalf("%v/%v window %v+%v: cell %d = %g, want %g", tc.shape, tc.block, off, shape, i, got.data[i], want.data[i])
				}
			}
		}
	}
}

func TestCursorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("dims mismatch", func() { NewBlockCursor([]int{2}, []int{4, 4}, nil, []int{8, 8}) })
	mustPanic("offset dims mismatch", func() { NewBlockCursor([]int{2, 2}, []int{4, 4}, []int{0}, []int{8, 8}) })
	cur := NewBlockCursor([]int{2, 2}, []int{4, 4}, nil, []int{8, 8})
	mustPanic("short block", func() { cur.Gather(make([]float64, 8), make([]float64, 64), 0) })
}
