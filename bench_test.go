// Package repro benchmarks: one benchmark family per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Families:
//
//	BenchmarkFig2*  — PyBlaz-vs-Blaz operation time (Fig. 2), via the codec registry
//	BenchmarkFig3*  — compression/decompression vs the ZFP-like baseline (Fig. 3), via the registry
//	BenchmarkCodecMatrix — compress/decompress for every registered codec on the Fig. 2 dataset
//	BenchmarkFig5*  — compressed-space scalar functions on MRI-like data (Fig. 5)
//	BenchmarkFig6*  — fission L2 + Wasserstein pipeline (Fig. 6)
//	BenchmarkFig7*  — per-operation times, 3-D arrays, block 4 (Fig. 7)
//	BenchmarkTableI* — every Table I operation at a fixed size
//	BenchmarkAblation* — DCT vs Haar, pruning fraction, parallel vs serial
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/tensor"
	"repro/internal/transform"
)

func mustC(b *testing.B, s core.Settings) *core.Compressor {
	b.Helper()
	c, err := core.NewCompressor(s)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func mustA(b *testing.B, c *core.Compressor, t *tensor.Tensor) *core.CompressedArray {
	b.Helper()
	a, err := c.Compress(t)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// mustCodec constructs a backend from its registry spec.
func mustCodec(b *testing.B, spec string) codec.Codec {
	b.Helper()
	cd, err := codec.Lookup(spec)
	if err != nil {
		b.Fatal(err)
	}
	return cd
}

// mustOps additionally requires compressed-space arithmetic.
func mustOps(b *testing.B, spec string) codec.Ops {
	b.Helper()
	ops, ok := mustCodec(b, spec).(codec.Ops)
	if !ok {
		b.Fatalf("codec %q does not support compressed-space ops", spec)
	}
	return ops
}

func mustCompress(b *testing.B, cd codec.Codec, t *tensor.Tensor) codec.Compressed {
	b.Helper()
	c, err := cd.Compress(t)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// --- Fig. 2: goblaz vs blaz, 2-D, 8×8 blocks, float64/int8 ---
//
// Both contenders come from the codec registry and run through the same
// codec-generic loops, so the per-backend hand-wiring of the seed is gone:
// adding a backend to fig2Specs is all it takes to extend the comparison.

var fig2Specs = []string{
	"goblaz:block=8x8,float=float64,index=int8",
	"blaz",
}

var fig2Sizes = []int{64, 256, 1024}

// benchFig2 runs one Fig. 2 operation family for every codec and size.
func benchFig2(b *testing.B, fn func(b *testing.B, cd codec.Ops, x, y *tensor.Tensor)) {
	for _, spec := range fig2Specs {
		for _, n := range fig2Sizes {
			cd := mustOps(b, spec)
			b.Run(fmt.Sprintf("codec=%s/size=%d", cd.Name(), n), func(b *testing.B) {
				fn(b, cd, data.Gradient(n, n), data.Gradient(n, n))
			})
		}
	}
}

func BenchmarkFig2Compress(b *testing.B) {
	benchFig2(b, func(b *testing.B, cd codec.Ops, x, _ *tensor.Tensor) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCompress(b, cd, x)
		}
	})
}

func BenchmarkFig2Decompress(b *testing.B) {
	benchFig2(b, func(b *testing.B, cd codec.Ops, x, _ *tensor.Tensor) {
		a := mustCompress(b, cd, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cd.Decompress(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig2Add(b *testing.B) {
	benchFig2(b, func(b *testing.B, cd codec.Ops, x, y *tensor.Tensor) {
		a1 := mustCompress(b, cd, x)
		a2 := mustCompress(b, cd, y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cd.Add(a1, a2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig2Multiply(b *testing.B) {
	benchFig2(b, func(b *testing.B, cd codec.Ops, x, _ *tensor.Tensor) {
		a := mustCompress(b, cd, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cd.MulScalar(a, 1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig. 3: zfpsim fixed-rate vs goblaz, 2-D and 3-D ---

func BenchmarkFig3ZfpCompress2D(b *testing.B) {
	for _, rate := range []int{8, 16, 32} {
		cd := mustCodec(b, fmt.Sprintf("zfp:rate=%d", rate))
		b.Run(fmt.Sprintf("rate=%d/size=256", rate), func(b *testing.B) {
			x := data.Gradient(256, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, cd, x)
			}
		})
	}
}

func BenchmarkFig3ZfpDecompress2D(b *testing.B) {
	for _, rate := range []int{8, 16, 32} {
		cd := mustCodec(b, fmt.Sprintf("zfp:rate=%d", rate))
		b.Run(fmt.Sprintf("rate=%d/size=256", rate), func(b *testing.B) {
			a := mustCompress(b, cd, data.Gradient(256, 256))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cd.Decompress(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig3ZfpCompress3D(b *testing.B) {
	cd := mustCodec(b, "zfp:rate=16")
	x := data.Gradient(64, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCompress(b, cd, x)
	}
}

func BenchmarkFig3GoblazCompress2D(b *testing.B) {
	for _, index := range []string{"int8", "int16"} {
		cd := mustCodec(b, "goblaz:block=4x4,index="+index)
		b.Run(fmt.Sprintf("index=%s/size=256", index), func(b *testing.B) {
			x := data.Gradient(256, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCompress(b, cd, x)
			}
		})
	}
}

func BenchmarkFig3GoblazDecompress2D(b *testing.B) {
	cd := mustCodec(b, "goblaz:block=4x4")
	a := mustCompress(b, cd, data.Gradient(256, 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cd.Decompress(a); err != nil {
			b.Fatal(err)
		}
	}
}

// SZ is a background comparator (§II): include its round trip for context.
func BenchmarkSZCompress2D(b *testing.B) {
	cd := mustCodec(b, "sz:tol=1e-4")
	x := data.Gradient(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCompress(b, cd, x)
	}
}

// --- Codec matrix: every registered backend on the same dataset ---

// BenchmarkCodecMatrix runs compress and decompress for every codec in
// the registry (at its default spec) on the Fig. 2 dataset, and reports
// the measured compression ratio as a custom metric. A backend added via
// codec.Register is benchmarked here with no further wiring.
func BenchmarkCodecMatrix(b *testing.B) {
	x := data.Gradient(256, 256)
	raw := float64(x.Len() * 8)
	for _, name := range codec.List() {
		cd := mustCodec(b, name)
		b.Run("codec="+name+"/op=compress", func(b *testing.B) {
			b.ResetTimer()
			var c codec.Compressed
			for i := 0; i < b.N; i++ {
				c = mustCompress(b, cd, x)
			}
			b.ReportMetric(raw/float64(cd.EncodedSize(c)), "ratio")
		})
		b.Run("codec="+name+"/op=decompress", func(b *testing.B) {
			a := mustCompress(b, cd, x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cd.Decompress(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 5: compressed-space scalar functions on an MRI-like volume ---

func fig5Volume(b *testing.B) (*core.Compressor, *core.CompressedArray, *core.CompressedArray) {
	b.Helper()
	s := core.DefaultSettings(4, 16, 16)
	c := mustC(b, s)
	v1 := data.MRIVolume(1, 32, 128, 128)
	v2 := data.MRIVolume(2, 32, 128, 128)
	return c, mustA(b, c, v1), mustA(b, c, v2)
}

func BenchmarkFig5Mean(b *testing.B) {
	c, a, _ := fig5Volume(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Mean(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Variance(b *testing.B) {
	c, a, _ := fig5Volume(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Variance(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5L2Norm(b *testing.B) {
	c, a, _ := fig5Volume(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.L2Norm(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5SSIM(b *testing.B) {
	c, a, a2 := fig5Volume(b)
	opts := core.DefaultSSIMOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.StructuralSimilarity(a, a2, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6: fission pipeline ---

func BenchmarkFig6L2Difference(b *testing.B) {
	s := core.DefaultSettings(16, 16, 16)
	c := mustC(b, s)
	series := data.FissionSeries(1, 40, 40, 66)
	a1 := mustA(b, c, series[9])  // step 690
	a2 := mustA(b, c, series[10]) // step 692
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff, err := c.Subtract(a2, a1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.L2Norm(diff); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Wasserstein(b *testing.B) {
	for _, p := range []float64{1, 8, 68} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			s := core.DefaultSettings(16, 16, 16)
			c := mustC(b, s)
			series := data.FissionSeries(1, 40, 40, 66)
			a1 := mustA(b, c, series[9])
			a2 := mustA(b, c, series[10])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.WassersteinDistance(a1, a2, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 7: per-operation times, 3-D arrays, block 4 ---

func fig7Setup(b *testing.B, n int) (*core.Compressor, *core.CompressedArray, *core.CompressedArray) {
	b.Helper()
	s := core.DefaultSettings(4, 4, 4)
	c := mustC(b, s)
	x := data.Gradient(n, n, n)
	y := data.Gradient(n, n, n)
	return c, mustA(b, c, x), mustA(b, c, y)
}

func BenchmarkFig7(b *testing.B) {
	const n = 64
	type op struct {
		name string
		fn   func(c *core.Compressor, a1, a2 *core.CompressedArray) error
	}
	ops := []op{
		{"negate", func(c *core.Compressor, a1, _ *core.CompressedArray) error {
			_, err := c.Negate(a1)
			return err
		}},
		{"add", func(c *core.Compressor, a1, a2 *core.CompressedArray) error {
			_, err := c.Add(a1, a2)
			return err
		}},
		{"multiply", func(c *core.Compressor, a1, _ *core.CompressedArray) error {
			_, err := c.MulScalar(a1, 2)
			return err
		}},
		{"dot", func(c *core.Compressor, a1, a2 *core.CompressedArray) error {
			_, err := c.Dot(a1, a2)
			return err
		}},
		{"norm2", func(c *core.Compressor, a1, _ *core.CompressedArray) error {
			_, err := c.L2Norm(a1)
			return err
		}},
		{"cosine", func(c *core.Compressor, a1, a2 *core.CompressedArray) error {
			_, err := c.CosineSimilarity(a1, a2)
			return err
		}},
		{"mean", func(c *core.Compressor, a1, _ *core.CompressedArray) error {
			_, err := c.Mean(a1)
			return err
		}},
		{"variance", func(c *core.Compressor, a1, _ *core.CompressedArray) error {
			_, err := c.Variance(a1)
			return err
		}},
		{"ssim", func(c *core.Compressor, a1, a2 *core.CompressedArray) error {
			_, err := c.StructuralSimilarity(a1, a2, core.DefaultSSIMOptions())
			return err
		}},
		{"wasserstein", func(c *core.Compressor, a1, a2 *core.CompressedArray) error {
			_, err := c.WassersteinDistance(a1, a2, 2)
			return err
		}},
	}
	for _, o := range ops {
		b.Run(fmt.Sprintf("op=%s/size=%d", o.name, n), func(b *testing.B) {
			c, a1, a2 := fig7Setup(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := o.fn(c, a1, a2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(fmt.Sprintf("op=compress/size=%d", n), func(b *testing.B) {
		s := core.DefaultSettings(4, 4, 4)
		c := mustC(b, s)
		x := data.Gradient(n, n, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustA(b, c, x)
		}
	})
	b.Run(fmt.Sprintf("op=decompress/size=%d", n), func(b *testing.B) {
		c, a1, _ := fig7Setup(b, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Decompress(a1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table I: AddScalar is the remaining untimed op ---

func BenchmarkTableIAddScalar(b *testing.B) {
	c, a1, _ := fig7Setup(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AddScalar(a1, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// DCT vs Haar vs identity transform cost.
func BenchmarkAblationTransform(b *testing.B) {
	for _, tr := range []transform.Kind{transform.DCT, transform.Haar, transform.Identity} {
		b.Run("transform="+tr.String(), func(b *testing.B) {
			s := core.DefaultSettings(8, 8)
			s.Transform = tr
			c := mustC(b, s)
			x := data.Gradient(256, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustA(b, c, x)
			}
		})
	}
}

// Pruning fraction: compression cost vs kept coefficients.
func BenchmarkAblationPruning(b *testing.B) {
	for _, frac := range []float64{1.0, 0.5, 0.25} {
		b.Run(fmt.Sprintf("keep=%.2f", frac), func(b *testing.B) {
			s := core.DefaultSettings(8, 8)
			if frac < 1 {
				mask, err := core.KeepLowFrequency([]int{8, 8}, frac)
				if err != nil {
					b.Fatal(err)
				}
				s.Mask = mask
			}
			c := mustC(b, s)
			x := data.Gradient(256, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustA(b, c, x)
			}
		})
	}
}

// Parallel vs forced-serial block loops (the "GPU" ablation).
func BenchmarkAblationParallelism(b *testing.B) {
	x := data.Gradient(512, 512)
	s := core.DefaultSettings(8, 8)
	for _, mode := range []string{"parallel", "serial"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "serial" {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			c := mustC(b, s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustA(b, c, x)
			}
		})
	}
}
