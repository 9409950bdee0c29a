package core

import (
	"testing"

	"repro/internal/scalar"
)

// analyticsFrames builds two frames of the benchmark's analytics corpus
// shape: 256×256, block=8x8, float=float32, index=int8 — 1024 blocks,
// a 69.7 KB payload.
func analyticsFrames(tb testing.TB) (*Compressor, *CompressedArray, *CompressedArray) {
	tb.Helper()
	s := DefaultSettings(8, 8)
	s.IndexType = scalar.Int8
	c, err := NewCompressor(s)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := c.Compress(smoothTensor(1, 256, 256))
	if err != nil {
		tb.Fatal(err)
	}
	b, err := c.Compress(smoothTensor(2, 256, 256))
	if err != nil {
		tb.Fatal(err)
	}
	return c, a, b
}

type namedKernel struct {
	name string
	run  func() (float64, error)
}

// scalarKernels lists the eleven scalar-valued operations by name.
func scalarKernels(c *Compressor, a, b *CompressedArray) []namedKernel {
	return []namedKernel{
		{"dot", func() (float64, error) { return c.Dot(a, b) }},
		{"l2norm", func() (float64, error) { return c.L2Norm(a) }},
		{"moments", func() (float64, error) {
			_, sum, sumSq, err := c.Moments(a)
			return sum + sumSq, err
		}},
		{"mean", func() (float64, error) { return c.Mean(a) }},
		{"covariance", func() (float64, error) { return c.Covariance(a, b) }},
		{"variance", func() (float64, error) { return c.Variance(a) }},
		{"stddev", func() (float64, error) { return c.StdDev(a) }},
		{"cosine", func() (float64, error) { return c.CosineSimilarity(a, b) }},
		{"l2distance", func() (float64, error) { return c.L2Distance(a, b) }},
		{"mse", func() (float64, error) { return c.MSE(a, b) }},
		{"psnr", func() (float64, error) { return c.PSNR(a, b, 1) }},
		{"nrmse", func() (float64, error) { return c.NormalizedRMSE(a, b, 1) }},
	}
}

var sinkFloat float64

// decoders are the two ways to decode a stream: Decode copies F, and
// DecodeView reads a v2 int8 F in place.
var decoders = []struct {
	name   string
	decode func([]byte) (*CompressedArray, error)
}{{"copy", Decode}, {"view", DecodeView}}

// The guards below run in plain `go test`: they are what keeps the
// compressed form from being inflated again one temporary at a time.

func TestScalarKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, a, b := analyticsFrames(t)
	for _, k := range scalarKernels(c, a, b) {
		allocs := testing.AllocsPerRun(5, func() {
			v, err := k.run()
			if err != nil {
				t.Fatal(err)
			}
			sinkFloat = v
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", k.name, allocs)
		}
	}
	ssim := testing.AllocsPerRun(5, func() {
		v, err := c.StructuralSimilarity(a, b, DefaultSSIMOptions())
		if err != nil {
			t.Fatal(err)
		}
		sinkFloat = v
	})
	if ssim != 0 {
		t.Errorf("StructuralSimilarity allocates %v objects per call, want 0", ssim)
	}
}

func TestDecodeAllocatesNoMoreThanThePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, a, _ := analyticsFrames(t)
	payload := mustEncode(t, a)
	// The array, one []int backing Shape, BlockShape and Blocks, N, and —
	// for the copy — F. The mask is nil: nothing is pruned.
	want := map[string]float64{"copy": 4, "view": 3}
	for _, d := range decoders {
		objects := testing.AllocsPerRun(10, func() {
			if _, err := d.decode(payload); err != nil {
				t.Fatal(err)
			}
		})
		if objects > want[d.name] {
			t.Errorf("%s decode allocates %v objects, want ≤ %v", d.name, objects, want[d.name])
		}
	}
	bytesPerOp := func(decode func([]byte) (*CompressedArray, error)) int64 {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode(payload); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	// F at its own width is what the payload holds; N widens f-bit floats
	// to float64, 8 bytes a block.
	limit := int64(1.1*float64(len(payload))) + 8*int64(a.NumBlocks())
	if got := bytesPerOp(Decode); got > limit {
		t.Errorf("Decode allocates %d B for a %d B payload, want ≤ %d", got, len(payload), limit)
	}
	// The view's F is the payload, so no object is F-sized: N and the
	// header are all it allocates.
	limit = 8*int64(a.NumBlocks()) + 512
	if got := bytesPerOp(DecodeView); got > limit {
		t.Errorf("DecodeView allocates %d B for a %d B payload, want ≤ %d", got, len(payload), limit)
	}
}

func TestEncodeAllocatesOnlyThePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, a, _ := analyticsFrames(t)
	payload := mustEncode(t, a)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One allocation, the stream itself. The runtime charges a large
	// object by whole 8 KiB pages (this 69 682 B payload counts as
	// 73 728), so the bound is the payload rounded up to a page rather
	// than a percentage of it.
	const page = 8192
	if got, limit := res.AllocedBytesPerOp(), int64((len(payload)+page-1)/page*page); got > limit {
		t.Errorf("Encode allocates %d B for a %d B payload, want ≤ %d", got, len(payload), limit)
	}
	if got := res.AllocsPerOp(); got > 1 {
		t.Errorf("Encode allocates %d objects, want 1 (the pre-sized stream)", got)
	}
}

// BenchmarkDecode/copy unpacks F into a fresh slice; /view reads the
// int8 F of the v2 payload in place.
func BenchmarkDecode(b *testing.B) {
	_, a, _ := analyticsFrames(b)
	payload, err := Encode(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range decoders {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.decode(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	_, a, _ := analyticsFrames(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := Encode(a)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
	}
}

// BenchmarkKernels runs the scalar kernels over a heap F (copy) and over
// an F that is the v2 payload's own bytes (view), and extrema against the
// decode-then-scan it replaces.
func BenchmarkKernels(b *testing.B) {
	c, x, y := analyticsFrames(b)
	want := map[string]bool{"dot": true, "l2norm": true, "moments": true, "variance": true, "mse": true, "cosine": true,
		"extrema": true, "decompress+minmax": true}
	for _, d := range decoders {
		xd, err := d.decode(mustEncode(b, x))
		if err != nil {
			b.Fatal(err)
		}
		yd, err := d.decode(mustEncode(b, y))
		if err != nil {
			b.Fatal(err)
		}
		kernels := append(scalarKernels(c, xd, yd),
			namedKernel{"extrema", func() (float64, error) {
				lo, hi, err := c.Extrema(xd)
				return lo + hi, err
			}},
			namedKernel{"decompress+minmax", func() (float64, error) {
				t, err := c.Decompress(xd)
				if err != nil {
					return 0, err
				}
				return t.Min() + t.Max(), nil
			}})
		for _, k := range kernels {
			if !want[k.name] {
				continue
			}
			b.Run(d.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v, err := k.run()
					if err != nil {
						b.Fatal(err)
					}
					sinkFloat = v
				}
			})
		}
	}
}
