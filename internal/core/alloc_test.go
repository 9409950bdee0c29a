package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

// analyticsFrames builds two frames of the benchmark's analytics corpus
// shape: 256×256, block=8x8, float=float32, index=int8 — 1024 blocks,
// a 69.7 KB payload. The fields are smooth, so most of F is zero.
func analyticsFrames(tb testing.TB) (*Compressor, *CompressedArray, *CompressedArray) {
	return int8Frames(tb, smoothTensor)
}

// noiseFrames are analyticsFrames of Gaussian noise: F is dense, the
// case in which skipping zero indices must not cost anything.
func noiseFrames(tb testing.TB) (*Compressor, *CompressedArray, *CompressedArray) {
	return int8Frames(tb, randomTensor)
}

func int8Frames(tb testing.TB, field func(seed int64, shape ...int) *tensor.Tensor) (*Compressor, *CompressedArray, *CompressedArray) {
	tb.Helper()
	s := DefaultSettings(8, 8)
	s.IndexType = scalar.Int8
	c, err := NewCompressor(s)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := c.Compress(field(1, 256, 256))
	if err != nil {
		tb.Fatal(err)
	}
	b, err := c.Compress(field(2, 256, 256))
	if err != nil {
		tb.Fatal(err)
	}
	return c, a, b
}

// scatteredFrames are analyticsFrames' geometry at int16, written
// directly rather than compressed: 80 % of the indices are zero, at
// uniformly random positions, the rest uniform over [−r, r] — the frame on
// which choosing a block's body from a sample of its words cost up to
// 1.3× the plain loop. Every block is stored masked.
func scatteredFrames(tb testing.TB) (*Compressor, *CompressedArray, *CompressedArray) {
	tb.Helper()
	s := DefaultSettings(8, 8)
	s.IndexType = scalar.Int16
	c, err := NewCompressor(s)
	if err != nil {
		tb.Fatal(err)
	}
	frame := func(seed int64) *CompressedArray {
		rng := rand.New(rand.NewSource(seed))
		a := c.newArray([]int{256, 256}, []int{32, 32})
		for k := range a.N {
			a.N[k] = s.FloatType.Round(1 + rng.Float64())
		}
		r := int(c.radius)
		for i := range a.F.i16 {
			if rng.Intn(100) >= 80 {
				a.F.i16[i] = int16(rng.Intn(2*r) - r + 1)
			}
		}
		return a
	}
	return c, frame(1), frame(2)
}

// zeroShare returns the fraction of a's indices that are 0.
func zeroShare(a *CompressedArray) float64 {
	f := a.indices()
	zeros := 0
	for _, v := range f {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(f))
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

// decoders are the two ways to decode a stream: Decode copies F and the
// masks, and DecodeView reads an int8 F and the masks in place.
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

// TestV4AllocatesAsV3: on liveFrame, decoding the v4 stream allocates no
// more objects and bytes than decoding the v3 one, and Encode writes v4
// into one allocation, as it writes v3. (Their times are BenchmarkDecode's
// and BenchmarkEncode's live cells.)
func TestV4AllocatesAsV3(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// perOp returns f's objects and bytes a call, the bytes the least of
	// three rounds, so that the runtime's own allocations do not count.
	perOp := func(f func()) (objects float64, bytes uint64) {
		objects, bytes = testing.AllocsPerRun(10, f), math.MaxUint64
		for round := 0; round < 3; round++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 10; i++ {
				f()
			}
			runtime.ReadMemStats(&m1)
			bytes = min(bytes, (m1.TotalAlloc-m0.TotalAlloc)/10)
		}
		return objects, bytes
	}
	a := liveFrame(t)
	var objects [2]float64
	var bytes [2]uint64
	for i, v := range liveStreams {
		payload, err := encodeWith(a, v.choice)
		if err != nil {
			t.Fatal(err)
		}
		objects[i], bytes[i] = perOp(func() {
			if _, err := Decode(payload); err != nil {
				t.Fatal(err)
			}
		})
		if n := testing.AllocsPerRun(10, func() {
			if _, err := encodeWith(a, v.choice); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Encode allocates %v objects, want 1", v.name, n)
		}
	}
	if objects[1] > objects[0] || bytes[1] > bytes[0] {
		t.Errorf("v4 decode allocates %d B in %v objects, v3 %d B in %v", bytes[1], objects[1], bytes[0], objects[0])
	}
}

// liveFrame is one frame of the benchmark's ingest pool: a 64×64
// data.Gradient plus 0.01σ Gaussian noise from rand.NewSource(128), in
// 8×8 float32 int16 blocks. Nearly every block is dense, and its indices
// are small but for each block's ±r.
func liveFrame(tb testing.TB) *CompressedArray {
	tb.Helper()
	s := DefaultSettings(8, 8)
	s.IndexType = scalar.Int16
	c, err := NewCompressor(s)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := c.Compress(liveTensor())
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// liveTensor is liveFrame's data.
func liveTensor() *tensor.Tensor {
	x := data.Gradient(64, 64)
	rng := rand.New(rand.NewSource(128))
	for i := range x.Data() {
		x.Data()[i] += 0.01 * rng.NormFloat64()
	}
	return x
}

// liveStreams are liveFrame's v3 and v4 streams, the cells of the v4
// decode and encode budgets.
var liveStreams = []struct {
	name   string
	choice streamChoice
}{{"live-int16/v3", forceV3}, {"live-int16/v4", forceV4}}

// BenchmarkDecode/copy unpacks F into a fresh slice; /view reads the
// int8 F of the v3 payload in place. The live cells decode liveFrame's
// stream in each version with Decode.
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
	live := liveFrame(b)
	for _, v := range liveStreams {
		payload, err := encodeWith(live, v.choice)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode encodes the analytics frame as Encode does (v3), and
// liveFrame in each version.
func BenchmarkEncode(b *testing.B) {
	_, a, _ := analyticsFrames(b)
	cells := []struct {
		name   string
		a      *CompressedArray
		choice streamChoice
	}{{"analytics-int8", a, pickSmaller}}
	live := liveFrame(b)
	for _, v := range liveStreams {
		cells = append(cells, struct {
			name   string
			a      *CompressedArray
			choice streamChoice
		}{v.name, live, v.choice})
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				payload, err := encodeWith(cell.a, cell.choice)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(payload)))
			}
		})
	}
}

// BenchmarkKernels runs the scalar kernels over a heap F (copy), over an
// F that is the v3 payload's own bytes (view), and over the v2 payload,
// every block dense (v2: the plain loop every other cell is read
// against), and extrema against the decode-then-scan it replaces. The
// frames are the smooth analytics frames, dense noise frames and int16
// frames of scattered zeros; zero_share is the fraction of the first
// frame's indices that are 0, and masked_share of its blocks stored
// masked.
func BenchmarkKernels(b *testing.B) {
	want := map[string]bool{"dot": true, "l2norm": true, "moments": true, "variance": true, "mse": true, "cosine": true,
		"extrema": true, "decompress+minmax": true}
	v2 := func(data []byte) (*CompressedArray, error) { return Decode(data) }
	for _, frames := range []struct {
		name string
		make func(testing.TB) (*Compressor, *CompressedArray, *CompressedArray)
	}{{"smooth", analyticsFrames}, {"noise", noiseFrames}, {"scattered", scatteredFrames}} {
		c, x, y := frames.make(b)
		zeros := zeroShare(x)
		for _, d := range append(decoders, struct {
			name   string
			decode func([]byte) (*CompressedArray, error)
		}{"v2", v2}) {
			encode := mustEncode
			if d.name == "v2" {
				encode = encodeV2
			}
			xd, err := d.decode(encode(b, x))
			if err != nil {
				b.Fatal(err)
			}
			yd, err := d.decode(encode(b, y))
			if err != nil {
				b.Fatal(err)
			}
			maskedBlocks := 0
			for k := range xd.N {
				if masked(xd.occ, k) {
					maskedBlocks++
				}
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
				b.Run(frames.name+"/"+d.name+"/"+k.name, func(b *testing.B) {
					b.ReportAllocs()
					b.ReportMetric(zeros, "zero_share")
					b.ReportMetric(float64(maskedBlocks)/float64(len(xd.N)), "masked_share")
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
}
