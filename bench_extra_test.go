package repro

import (
	"testing"

	"repro/internal/baseline/blaz"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/scalar"
	"repro/internal/transform"
)

// Supplementary benchmark families: the blaz baseline's serialization,
// reduced-precision conversion, the derived distance metrics and their
// gradients, and the transform-quality ablation.

func BenchmarkBlazSerialize(b *testing.B) {
	x := data.Gradient(256, 256)
	a, err := blaz.Compress(x.Data(), 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := blaz.Encode(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := blaz.Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarRounding(b *testing.B) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i)*0.37 - 700
	}
	for _, ft := range []scalar.FloatType{scalar.BFloat16, scalar.Float16, scalar.Float32} {
		b.Run(ft.String(), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range xs {
					_ = ft.Round(x)
				}
			}
		})
	}
}

func BenchmarkDerivedDistances(b *testing.B) {
	c := mustC(b, core.DefaultSettings(4, 4))
	a1 := mustA(b, c, data.Gradient(128, 128))
	a2 := mustA(b, c, data.Gradient(128, 128))
	b.Run("l2distance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.L2Distance(a1, a2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.MSE(a1, a2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGradients(b *testing.B) {
	c := mustC(b, core.DefaultSettings(4, 4))
	a1 := mustA(b, c, data.Gradient(128, 128))
	a2 := mustA(b, c, data.Gradient(128, 128))
	b.Run("dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := c.DotValueGrad(a1, a2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cosine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := c.CosineSimilarityValueGrad(a1, a2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Haar-vs-DCT reconstruction quality ablation reported as a custom metric
// (lower is better), complementing the timing ablation in bench_test.go.
func BenchmarkAblationTransformQuality(b *testing.B) {
	for _, tr := range []transform.Kind{transform.DCT, transform.Haar} {
		b.Run("transform="+tr.String(), func(b *testing.B) {
			s := core.DefaultSettings(8, 8)
			s.Transform = tr
			s.IndexType = scalar.Int8
			c := mustC(b, s)
			x := data.Gradient(128, 128)
			var rmse float64
			for i := 0; i < b.N; i++ {
				a := mustA(b, c, x)
				y, err := c.Decompress(a)
				if err != nil {
					b.Fatal(err)
				}
				rmse = x.RMSE(y)
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}
