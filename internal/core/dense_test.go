package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

// Allocation guards for the dense path, in plain `go test` beside the
// ones for the compressed side: each helper slice that creeps back into
// Compress or Decompress shows up in the benchmark's allocs_per_op, whose
// bound is 3 %. (Not under -race: the detector allocates.) The decompress
// guards run on Compress's output, every block dense, and on the same
// array through Decode(Encode(a)), every block masked — what a server
// decompresses.

// storedForms returns a as Compress returns it and as a stored payload
// decodes.
func storedForms(t *testing.T, a *CompressedArray) map[string]*CompressedArray {
	t.Helper()
	v3, err := Decode(mustEncode(t, a))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*CompressedArray{"compress": a, "v3": v3}
}

func TestDecompressAllocatesOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, a, _ := analyticsFrames(t)
	for name, a := range storedForms(t, a) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decompress(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocsPerOp(); got > 13 {
			t.Errorf("%s: Decompress allocates %d objects, want ≤ 13", name, got)
		}
		limit := int64(1.01*8*float64(a.OriginalLen())) + 4<<10
		if got := res.AllocedBytesPerOp(); got > limit {
			t.Errorf("%s: Decompress allocates %d B for a %d B result, want ≤ %d", name, got, 8*a.OriginalLen(), limit)
		}
	}
}

func TestCompressHoldsNoFrameSizedBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, a, _ := analyticsFrames(t)
	x := smoothTensor(1, 256, 256)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compress(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocsPerOp(); got > 17 {
		t.Errorf("Compress allocates %d objects, want ≤ 17", got)
	}
	// N and F, and change: a float buffer the size of the frame (512 KB
	// here) cannot hide in it.
	width := c.settings.IndexType.Bits() / 8
	limit := int64(8*a.NumBlocks()+width*a.F.Len()) + 8<<10
	if got := res.AllocedBytesPerOp(); got > limit {
		t.Errorf("Compress allocates %d B, want ≤ %d (N + F + 8 KB)", got, limit)
	}
}

func TestDecompressRegionOfOneBlockAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, a, _ := analyticsFrames(t)
	for name, a := range storedForms(t, a) {
		objects := testing.AllocsPerRun(20, func() {
			if _, err := c.DecompressRegion(a, []int{64, 128}, []int{8, 8}); err != nil {
				t.Fatal(err)
			}
		})
		if objects > 14 {
			t.Errorf("%s: DecompressRegion of one block allocates %v objects, want ≤ 14", name, objects)
		}
	}
}

var sinkTensor *tensor.Tensor

// BenchmarkDense times Compress, and Decompress and a one-block region
// both on Compress's output (every block dense) and, in the -v3 cells, on
// the same array through Decode(Encode(a)), every block the encoder
// masks stored masked. The gradient is the benchmark corpus' grid field.
func BenchmarkDense(b *testing.B) {
	for _, g := range []struct {
		name         string
		shape, block []int
		index        scalar.IndexType
		field        func(shape ...int) *tensor.Tensor
	}{
		{"256x256-8x8-int8", []int{256, 256}, []int{8, 8}, scalar.Int8, smooth},
		{"16x16x16-4x4x4-int16", []int{16, 16, 16}, []int{4, 4, 4}, scalar.Int16, smooth},
		{"16x16x16-8x8x8-int16", []int{16, 16, 16}, []int{8, 8, 8}, scalar.Int16, smooth},
		{"gradient-256x256-8x8-int8", []int{256, 256}, []int{8, 8}, scalar.Int8, data.Gradient},
	} {
		s := DefaultSettings(g.block...)
		s.IndexType = g.index
		c, err := NewCompressor(s)
		if err != nil {
			b.Fatal(err)
		}
		x := g.field(g.shape...)
		a, err := c.Compress(x)
		if err != nil {
			b.Fatal(err)
		}
		v3, err := Decode(mustEncode(b, a))
		if err != nil {
			b.Fatal(err)
		}
		// One block's worth, off the array's origin.
		offset := make([]int, len(g.block))
		copy(offset, g.block)
		run := func(op string, fn func() error) {
			b.Run(op, func(b *testing.B) {
				b.SetBytes(int64(8 * x.Len()))
				if op[:6] == "region" {
					b.SetBytes(int64(8 * tensor.Prod(g.block)))
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("compress/"+g.name, func() error { _, err := c.Compress(x); return err })
		for _, form := range []struct {
			suffix string
			a      *CompressedArray
		}{{"", a}, {"-v3", v3}} {
			a := form.a
			run("decompress/"+g.name+form.suffix, func() error {
				t, err := c.Decompress(a)
				sinkTensor = t
				return err
			})
			run("region/"+g.name+form.suffix, func() error {
				t, err := c.DecompressRegion(a, offset, g.block)
				sinkTensor = t
				return err
			})
		}
	}
}

// smooth is smoothTensor at seed 1.
func smooth(shape ...int) *tensor.Tensor { return smoothTensor(1, shape...) }
