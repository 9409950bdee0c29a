// Package blaz reimplements the original Blaz compressor of Martel
// ("Compressed matrix computations", BDCAT 2022), the single-threaded
// comparator of the paper's Fig. 2. Blaz compresses 2-dimensional float64
// arrays in 8×8 blocks: it saves the first element of each block, encodes
// the rest as differences from their previous element (the
// "differentiation"/normalization step PyBlaz deliberately skips), applies
// a block-wise DCT, saves the biggest coefficient, bins the others into
// 255 bins indexed by int8, and prunes the 6×6 square in the higher-index
// corner of each 8×8 coefficient block.
//
// Like the original, this implementation is deliberately single-threaded —
// the Fig. 2 comparison is "GPU-parallel PyBlaz vs. CPU-sequential Blaz",
// which here becomes "goroutine-parallel core vs. sequential blaz".
//
// The exact differentiation order is not specified in the paper's summary;
// this implementation uses the natural 2-D scheme: each element is encoded
// as the difference from its left neighbour, and first-column elements as
// the difference from the element above (the block's first element is
// stored exactly). The scheme is linear, so the compressed-space add and
// scale operations Blaz supports are preserved. Partial edge blocks are
// padded by replicating the last row/column rather than with zeros, so the
// pad introduces no artificial jump into the difference domain.
package blaz

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/transform"
)

// BlockSide is Blaz's fixed block side length.
const BlockSide = 8

// blockVol is the number of elements per block.
const blockVol = BlockSide * BlockSide

// keptPerBlock is the number of coefficient indices kept after pruning the
// 6×6 high corner from the 8×8 block: 64 − 36 = 28.
const keptPerBlock = blockVol - 6*6

// radius is the bin index radius: indices span −127..127 (255 bins).
const radius = 127

// Compressed is a Blaz-compressed 2-D array.
type Compressed struct {
	Rows, Cols int
	// BlockRows, BlockCols is the block arrangement.
	BlockRows, BlockCols int
	// First holds the first element of each block (row-major blocks).
	First []float64
	// MaxCoeff holds the biggest DCT coefficient magnitude per block.
	MaxCoeff []float64
	// Indices holds the kept int8 bin indices, keptPerBlock per block.
	Indices []int8
}

// dct is the 8×8 DCT resolved once; its axes need no scratch.
var dct = transform.New(transform.DCT).Plan([]int{BlockSide, BlockSide})

// keepPositions lists the intrablock positions kept by the pruning mask:
// everything except the 6×6 square at the high corner.
var keepPositions = func() []int {
	var pos []int
	for r := 0; r < BlockSide; r++ {
		for c := 0; c < BlockSide; c++ {
			if r >= BlockSide-6 && c >= BlockSide-6 {
				continue
			}
			pos = append(pos, r*BlockSide+c)
		}
	}
	return pos
}()

// NumBlocks returns the number of blocks.
func (a *Compressed) NumBlocks() int { return a.BlockRows * a.BlockCols }

// Compress compresses a row-major rows×cols float64 matrix.
func Compress(data []float64, rows, cols int) (*Compressed, error) {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("blaz: bad matrix %dx%d with %d elements", rows, cols, len(data))
	}
	br := (rows + BlockSide - 1) / BlockSide
	bc := (cols + BlockSide - 1) / BlockSide
	out := &Compressed{
		Rows: rows, Cols: cols,
		BlockRows: br, BlockCols: bc,
		First:    make([]float64, br*bc),
		MaxCoeff: make([]float64, br*bc),
		Indices:  make([]int8, br*bc*keptPerBlock),
	}
	block := make([]float64, blockVol)
	cur := tensor.NewBlockCursor([]int{br, bc}, []int{BlockSide, BlockSide}, nil, []int{rows, cols})
	for by := 0; by < br; by++ {
		for bx := 0; bx < bc; bx++ {
			k := by*bc + bx
			// Gather, then pad partial blocks by edge replication: the
			// last valid column across, the last valid row down.
			cur.Gather(block, data, k)
			nr, nc := min(BlockSide, rows-by*BlockSide), min(BlockSide, cols-bx*BlockSide)
			for r := 0; r < nr; r++ {
				for c := nc; c < BlockSide; c++ {
					block[r*BlockSide+c] = block[r*BlockSide+nc-1]
				}
			}
			for r := nr; r < BlockSide; r++ {
				copy(block[r*BlockSide:(r+1)*BlockSide], block[(nr-1)*BlockSide:nr*BlockSide])
			}
			out.First[k] = block[0]
			// 2-D differentiation: rows from the left neighbour (bottom-up
			// so sources are unmodified), first column from above.
			for r := BlockSide - 1; r >= 0; r-- {
				for c := BlockSide - 1; c >= 1; c-- {
					block[r*BlockSide+c] -= block[r*BlockSide+c-1]
				}
				if r > 0 {
					block[r*BlockSide] -= block[(r-1)*BlockSide]
				}
			}
			block[0] = 0
			// Block-wise DCT.
			dct.Forward(block, nil)
			// Biggest coefficient and binning.
			maxC := 0.0
			for _, v := range block {
				if a := math.Abs(v); a > maxC {
					maxC = a
				}
			}
			out.MaxCoeff[k] = maxC
			dst := out.Indices[k*keptPerBlock : (k+1)*keptPerBlock]
			if maxC == 0 {
				for j := range dst {
					dst[j] = 0
				}
				continue
			}
			for j, pos := range keepPositions {
				q := math.RoundToEven(radius * block[pos] / maxC)
				if q > radius {
					q = radius
				} else if q < -radius {
					q = -radius
				}
				dst[j] = int8(q)
			}
		}
	}
	return out, nil
}

// Decompress reconstructs the matrix.
func Decompress(a *Compressed) []float64 {
	out := make([]float64, a.Rows*a.Cols)
	block := make([]float64, blockVol)
	cur := tensor.NewBlockCursor([]int{a.BlockRows, a.BlockCols}, []int{BlockSide, BlockSide}, nil, []int{a.Rows, a.Cols})
	for by := 0; by < a.BlockRows; by++ {
		for bx := 0; bx < a.BlockCols; bx++ {
			k := by*a.BlockCols + bx
			for j := range block {
				block[j] = 0
			}
			src := a.Indices[k*keptPerBlock : (k+1)*keptPerBlock]
			for j, pos := range keepPositions {
				block[pos] = a.MaxCoeff[k] * float64(src[j]) / radius
			}
			dct.Inverse(block, nil)
			// Integrate: first column cumulatively from the stored first
			// element, then each row left to right.
			block[0] = a.First[k]
			for r := 1; r < BlockSide; r++ {
				block[r*BlockSide] += block[(r-1)*BlockSide]
			}
			for r := 0; r < BlockSide; r++ {
				for c := 1; c < BlockSide; c++ {
					block[r*BlockSide+c] += block[r*BlockSide+c-1]
				}
			}
			cur.Scatter(out, block, k)
		}
	}
	return out
}

// Add returns the compressed-space element-wise sum of a and b, one of the
// operations the original Blaz supports. Coefficients and firsts add
// linearly; the sums are rebinned against the new per-block maxima.
func Add(a, b *Compressed) (*Compressed, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("blaz: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := &Compressed{
		Rows: a.Rows, Cols: a.Cols,
		BlockRows: a.BlockRows, BlockCols: a.BlockCols,
		First:    make([]float64, len(a.First)),
		MaxCoeff: make([]float64, len(a.MaxCoeff)),
		Indices:  make([]int8, len(a.Indices)),
	}
	coeffs := make([]float64, keptPerBlock)
	for k := 0; k < a.NumBlocks(); k++ {
		out.First[k] = a.First[k] + b.First[k]
		maxC := 0.0
		for j := 0; j < keptPerBlock; j++ {
			c := a.MaxCoeff[k]*float64(a.Indices[k*keptPerBlock+j])/radius +
				b.MaxCoeff[k]*float64(b.Indices[k*keptPerBlock+j])/radius
			coeffs[j] = c
			if v := math.Abs(c); v > maxC {
				maxC = v
			}
		}
		out.MaxCoeff[k] = maxC
		if maxC == 0 {
			continue
		}
		for j := 0; j < keptPerBlock; j++ {
			q := math.RoundToEven(radius * coeffs[j] / maxC)
			out.Indices[k*keptPerBlock+j] = int8(q)
		}
	}
	return out, nil
}

// MulScalar returns the compressed-space product x·a: firsts and maxima
// scale, indices flip sign when x is negative. No rebinning error.
func MulScalar(a *Compressed, x float64) *Compressed {
	out := &Compressed{
		Rows: a.Rows, Cols: a.Cols,
		BlockRows: a.BlockRows, BlockCols: a.BlockCols,
		First:    make([]float64, len(a.First)),
		MaxCoeff: make([]float64, len(a.MaxCoeff)),
		Indices:  make([]int8, len(a.Indices)),
	}
	ax := math.Abs(x)
	for k := range a.First {
		out.First[k] = a.First[k] * x
		out.MaxCoeff[k] = a.MaxCoeff[k] * ax
	}
	if math.Signbit(x) {
		for j, v := range a.Indices {
			out.Indices[j] = -v
		}
	} else {
		copy(out.Indices, a.Indices)
	}
	return out
}

// CompressedSizeBits returns the storage cost in bits: per block one
// float64 first element, one float64 biggest coefficient, and 28 int8
// indices.
func (a *Compressed) CompressedSizeBits() int {
	return a.NumBlocks() * (64 + 64 + keptPerBlock*8)
}
