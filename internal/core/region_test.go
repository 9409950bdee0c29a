package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestDecompressRegionMatchesFull(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(130, 20, 28)
	a := compress(t, c, x)
	full := decompress(t, c, a)

	cases := []struct{ offset, shape []int }{
		{[]int{0, 0}, []int{20, 28}}, // whole array
		{[]int{0, 0}, []int{4, 4}},   // one block
		{[]int{3, 5}, []int{7, 9}},   // straddles block boundaries
		{[]int{19, 27}, []int{1, 1}}, // last element (padded block)
		{[]int{16, 24}, []int{4, 4}}, // last full block region
		{[]int{2, 2}, []int{1, 20}},  // thin slab
	}
	for _, cse := range cases {
		got, err := c.DecompressRegion(a, cse.offset, cse.shape)
		if err != nil {
			t.Fatalf("region %v+%v: %v", cse.offset, cse.shape, err)
		}
		want := cropRegion(full, cse.offset, cse.shape)
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("region %v+%v: L∞ %g vs full decompression", cse.offset, cse.shape, d)
		}
	}
}

// cropRegion extracts a region from a dense tensor for comparison.
func cropRegion(t *tensor.Tensor, offset, shape []int) *tensor.Tensor {
	out := tensor.New(shape...)
	idx := make([]int, len(shape))
	src := make([]int, len(shape))
	for {
		for i := range idx {
			src[i] = offset[i] + idx[i]
		}
		out.Data()[out.Offset(idx)] = t.Data()[t.Offset(src)]
		if !tensor.NextIndex(idx, shape) {
			break
		}
	}
	return out
}

func TestDecompressRegion3D(t *testing.T) {
	c := lossless64(t, 4, 4, 4)
	x := randomTensor(131, 9, 13, 10)
	a := compress(t, c, x)
	full := decompress(t, c, a)
	got, err := c.DecompressRegion(a, []int{1, 5, 2}, []int{6, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	want := cropRegion(full, []int{1, 5, 2}, []int{6, 4, 7})
	if got.MaxAbsDiff(want) != 0 {
		t.Error("3-D region mismatch")
	}
}

func TestDecompressRegionValidation(t *testing.T) {
	c := lossless64(t, 4, 4)
	a := compress(t, c, randomTensor(132, 8, 8))
	bad := []struct{ offset, shape []int }{
		{[]int{0}, []int{8}},        // dims mismatch
		{[]int{-1, 0}, []int{2, 2}}, // negative offset
		{[]int{0, 0}, []int{0, 4}},  // empty shape
		{[]int{6, 6}, []int{4, 4}},  // out of bounds
	}
	for _, cse := range bad {
		if _, err := c.DecompressRegion(a, cse.offset, cse.shape); err == nil {
			t.Errorf("region %v+%v should fail", cse.offset, cse.shape)
		}
	}
	other := mustCompressor(t, DefaultSettings(4, 4))
	if _, err := other.DecompressRegion(a, []int{0, 0}, []int{2, 2}); err == nil {
		t.Error("foreign array should fail")
	}
}

func TestDecompressRegionPartialBlockEdges(t *testing.T) {
	// 21×29 with 4×4 blocks leaves a 1×1-cell partial block at the high
	// corner; regions anchored in the trailing partial blocks exercise
	// the scatter's in-bounds filtering hardest. These become the query
	// engine's region path.
	c := lossless64(t, 4, 4)
	x := randomTensor(140, 21, 29)
	a := compress(t, c, x)
	full := decompress(t, c, a)
	cases := []struct{ offset, shape []int }{
		{[]int{20, 28}, []int{1, 1}}, // the single-cell corner block
		{[]int{20, 0}, []int{1, 29}}, // full last row (partial row band)
		{[]int{0, 28}, []int{21, 1}}, // full last column
		{[]int{19, 27}, []int{2, 2}}, // straddles full and partial blocks
		{[]int{16, 24}, []int{5, 5}}, // whole trailing corner
		{[]int{0, 0}, []int{21, 29}}, // everything
	}
	for _, cse := range cases {
		got, err := c.DecompressRegion(a, cse.offset, cse.shape)
		if err != nil {
			t.Fatalf("region %v+%v: %v", cse.offset, cse.shape, err)
		}
		if d := got.MaxAbsDiff(cropRegion(full, cse.offset, cse.shape)); d != 0 {
			t.Errorf("region %v+%v: L∞ %g vs full decompression", cse.offset, cse.shape, d)
		}
	}
}

func TestDecompressRegionZeroExtent(t *testing.T) {
	// Zero- and negative-extent shapes are errors in every position —
	// including mixed with valid extents — never empty tensors or
	// panics.
	c := lossless64(t, 4, 4)
	a := compress(t, c, randomTensor(141, 8, 8))
	bad := []struct{ offset, shape []int }{
		{[]int{0, 0}, []int{0, 0}},
		{[]int{0, 0}, []int{4, 0}},
		{[]int{0, 0}, []int{0, 4}},
		{[]int{7, 7}, []int{1, 0}},
		{[]int{0, 0}, []int{-1, 4}},
		{[]int{0, 0}, []int{4, -2}},
	}
	for _, cse := range bad {
		if _, err := c.DecompressRegion(a, cse.offset, cse.shape); err == nil {
			t.Errorf("zero/negative extent %v+%v should fail", cse.offset, cse.shape)
		}
	}
}

// at reads the element of a at idx as the query engine reads a point:
// the region of unit shape there.
func at(c *Compressor, a *CompressedArray, idx ...int) (float64, error) {
	unit := make([]int, len(idx))
	for i := range unit {
		unit[i] = 1
	}
	region, err := c.DecompressRegion(a, idx, unit)
	if err != nil {
		return 0, err
	}
	return region.Data()[0], nil
}

func TestAtValidation(t *testing.T) {
	// Out-of-range and malformed indices must return errors, not panic:
	// a unit-shape region is the query engine's point read and sees raw
	// user input.
	c := lossless64(t, 4, 4)
	a := compress(t, c, randomTensor(142, 9, 13))
	bad := [][]int{
		{9, 0},    // row out of range
		{0, 13},   // col out of range
		{-1, 0},   // negative row
		{0, -1},   // negative col
		{0},       // too few dims
		{0, 0, 0}, // too many dims
		{},        // no dims
	}
	for _, idx := range bad {
		if _, err := at(c, a, idx...); err == nil {
			t.Errorf("At(%v) should fail", idx)
		}
	}
	// The last element of the trailing partial block still reads.
	full := decompress(t, c, a)
	got, err := at(c, a, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got != full.At(8, 12) {
		t.Errorf("At(8,12) = %g, want %g", got, full.At(8, 12))
	}
	// A foreign array errors instead of reading garbage.
	other := mustCompressor(t, DefaultSettings(4, 4))
	if _, err := at(other, a, 0, 0); err == nil {
		t.Error("At on a foreign array should fail")
	}
}

func TestAtMatchesFullDecompression(t *testing.T) {
	c := lossless64(t, 4, 4)
	x := randomTensor(133, 12, 16)
	a := compress(t, c, x)
	full := decompress(t, c, a)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(12), rng.Intn(16)
		got, err := at(c, a, i, j)
		if err != nil {
			t.Fatal(err)
		}
		if got != full.At(i, j) {
			t.Fatalf("At(%d,%d) = %g, full %g", i, j, got, full.At(i, j))
		}
	}
}

func TestDecompressRegionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 5+rng.Intn(20), 5+rng.Intn(20)
		s := DefaultSettings(4, 4)
		c, err := NewCompressor(s)
		if err != nil {
			return false
		}
		x := tensor.New(rows, cols)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		a, err := c.Compress(x)
		if err != nil {
			return false
		}
		full, err := c.Decompress(a)
		if err != nil {
			return false
		}
		oy, ox := rng.Intn(rows), rng.Intn(cols)
		sy, sx := 1+rng.Intn(rows-oy), 1+rng.Intn(cols-ox)
		got, err := c.DecompressRegion(a, []int{oy, ox}, []int{sy, sx})
		if err != nil {
			return false
		}
		return got.MaxAbsDiff(cropRegion(full, []int{oy, ox}, []int{sy, sx})) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
