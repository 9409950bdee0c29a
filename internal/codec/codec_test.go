package codec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/tensor"
)

// roundTripCases lists every registered backend with a spec and the
// absolute error its round trip must stay within on the smooth [0, 1]
// gradient dataset.
var roundTripCases = []struct {
	spec string
	tol  float64
}{
	{"goblaz", 1e-3},
	{"goblaz:block=8x8,float=float64,index=int16,transform=dct", 1e-3},
	{"goblaz:block=4x4,keep=0.5", 0.1},
	{"blaz", 0.05},
	{"sz:tol=1e-4", 1e-4},
	{"sz:mode=curvefit,tol=1e-4", 1e-4},
	{"zfp:rate=32", 1e-4},
	{"zfp:rate=16", 1e-2},
}

func TestRoundTripAllCodecs(t *testing.T) {
	x := data.Gradient(48, 40)
	raw := x.Len() * 8
	for _, tc := range roundTripCases {
		t.Run(tc.spec, func(t *testing.T) {
			cd, err := Lookup(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cd.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			back, err := cd.Decompress(c)
			if err != nil {
				t.Fatal(err)
			}
			if !back.SameShape(x) {
				t.Fatalf("round trip shape %v, want %v", back.Shape(), x.Shape())
			}
			if e := x.MaxAbsDiff(back); e > tc.tol {
				t.Errorf("round-trip L∞ error %g exceeds %g", e, tc.tol)
			}
			if size := cd.EncodedSize(c); size <= 0 || size >= raw {
				t.Errorf("EncodedSize = %d, want in (0, %d)", size, raw)
			}
		})
	}
}

func TestEncodedSizeMatchesEncodeLength(t *testing.T) {
	// EncodedSize is computed arithmetically where possible; it must agree
	// with the actual serialized length for every Coder backend.
	x := data.Gradient(40, 24)
	for _, spec := range []string{"goblaz", "goblaz:block=8x8,keep=0.5", "blaz", "sz", "zfp:rate=8"} {
		cd, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cd.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := cd.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		got, want := cd.EncodedSize(c), len(blob)
		// Serialization may add a bounded header (shape, settings) on top
		// of the payload EncodedSize reports.
		if got > want || want-got > 64 {
			t.Errorf("%s: EncodedSize = %d, Encode length = %d", spec, got, want)
		}
	}
	// goblaz's is exact for every index × float type, mask and rank: the
	// v2 stream moved the pad before F, not the stream's length.
	for _, g := range []struct {
		block string
		shape []int
	}{{"8", []int{37}}, {"4x4", []int{14, 11}}, {"4x4x4", []int{5, 9, 7}}} {
		for _, it := range []string{"int8", "int16", "int32", "int64"} {
			for _, ft := range []string{"bfloat16", "float16", "float32", "float64"} {
				for _, keep := range []string{"1", "0.5"} {
					spec := fmt.Sprintf("goblaz:block=%s,float=%s,index=%s,keep=%s", g.block, ft, it, keep)
					cd, err := Lookup(spec)
					if err != nil {
						t.Fatal(err)
					}
					c, err := cd.Compress(data.Gradient(g.shape...))
					if err != nil {
						t.Fatal(err)
					}
					blob, err := cd.Encode(c)
					if err != nil {
						t.Fatal(err)
					}
					if got := cd.EncodedSize(c); got != len(blob) {
						t.Errorf("%s: EncodedSize = %d, Encode length = %d", spec, got, len(blob))
					}
				}
			}
		}
	}
}

func TestEveryRegisteredCodecHasDefaultSpec(t *testing.T) {
	names := List()
	if len(names) < 4 {
		t.Fatalf("List() = %v, want at least goblaz, blaz, sz, zfp", names)
	}
	for _, want := range []string{"goblaz", "blaz", "sz", "zfp"} {
		cd, err := Lookup(want)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", want, err)
		}
		if cd.Name() != want {
			t.Errorf("Name() = %q, want %q", cd.Name(), want)
		}
		// The canonical spec must reconstruct an equivalent codec.
		if _, err := Lookup(cd.Spec()); err != nil {
			t.Errorf("Lookup(Spec() = %q): %v", cd.Spec(), err)
		}
	}
}

func TestEncodeDecodeAllCodecs(t *testing.T) {
	x := data.Gradient(32, 32)
	for _, name := range List() {
		t.Run(name, func(t *testing.T) {
			cd, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cd.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := cd.Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			back, err := cd.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := cd.Decompress(c)
			if err != nil {
				t.Fatal(err)
			}
			viaBytes, err := cd.Decompress(back)
			if err != nil {
				t.Fatal(err)
			}
			if d := direct.MaxAbsDiff(viaBytes); d != 0 {
				t.Errorf("byte round trip drifted by %g", d)
			}
			if vd, ok := cd.(ViewDecoder); ok {
				view, err := vd.DecodeView(blob)
				if err != nil {
					t.Fatal(err)
				}
				viaView, err := cd.Decompress(view)
				if err != nil {
					t.Fatal(err)
				}
				if d := direct.MaxAbsDiff(viaView); d != 0 {
					t.Errorf("view round trip drifted by %g", d)
				}
			}
		})
	}
}

func TestOpsMatchDecompressedSpace(t *testing.T) {
	x := data.Gradient(32, 32)
	y := data.Gradient(32, 32).Apply(func(v float64) float64 { return 1 - v })
	for _, spec := range []string{"goblaz:block=8x8,float=float64,index=int16", "blaz"} {
		t.Run(spec, func(t *testing.T) {
			cd, err := Lookup(spec)
			if err != nil {
				t.Fatal(err)
			}
			ar, ok := cd.(Arith)
			if !ok {
				t.Fatalf("codec %q must implement Arith", spec)
			}
			ca, err := ar.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := ar.Compress(y)
			if err != nil {
				t.Fatal(err)
			}

			sum, err := ar.Add(ca, cb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ar.Decompress(sum)
			if err != nil {
				t.Fatal(err)
			}
			want := x.Clone().Add(y)
			if e := got.MaxAbsDiff(want); e > 0.1 {
				t.Errorf("compressed-space add error %g", e)
			}

			neg, err := ar.MulScalar(ca, -1)
			if err != nil {
				t.Fatal(err)
			}
			got, err = ar.Decompress(neg)
			if err != nil {
				t.Fatal(err)
			}
			if e := got.MaxAbsDiff(x.Clone().Neg()); e > 0.1 {
				t.Errorf("compressed-space negate error %g", e)
			}

			scaled, err := ar.MulScalar(ca, 2.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err = ar.Decompress(scaled)
			if err != nil {
				t.Fatal(err)
			}
			if e := got.MaxAbsDiff(x.Clone().Scale(2.5)); e > 0.25 {
				t.Errorf("compressed-space multiply error %g", e)
			}
		})
	}
}

func TestOpsAggregatesMatchDecompressedSpace(t *testing.T) {
	// The aggregate/metric entry points the query engine plans against:
	// goblaz serves all of them in compressed space, to values matching
	// direct computation on the decompressed arrays.
	x := data.Gradient(24, 32)
	y := data.Gradient(24, 32).Apply(func(v float64) float64 { return 0.5 + v*v })
	cd, err := Lookup("goblaz:block=4x4,float=float64,index=int16")
	if err != nil {
		t.Fatal(err)
	}
	ops := cd.(Ops)
	ca, err := ops.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := ops.Compress(y)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := ops.Decompress(ca)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := ops.Decompress(cb)
	if err != nil {
		t.Fatal(err)
	}

	n := float64(dx.Len())
	meanX := dx.Mean()
	wantVar := dx.Dot(dx)/n - meanX*meanX
	wantMSE := 0.0
	for i, v := range dx.Data() {
		d := v - dy.Data()[i]
		wantMSE += d * d
	}
	wantMSE /= n

	checks := []struct {
		name      string
		got       func() (float64, error)
		want, tol float64
	}{
		{"Mean", func() (float64, error) { return ops.Mean(ca) }, meanX, 1e-9},
		{"Variance", func() (float64, error) { return ops.Variance(ca) }, wantVar, 1e-9},
		{"L2Norm", func() (float64, error) { return ops.L2Norm(ca) }, dx.Norm2(), 1e-9},
		{"Dot", func() (float64, error) { return ops.Dot(ca, cb) }, dx.Dot(dy), 1e-9},
		{"MSE", func() (float64, error) { return ops.MSE(ca, cb) }, wantMSE, 1e-9},
		{"PSNR", func() (float64, error) { return ops.PSNR(ca, cb, 1) },
			10 * math.Log10(1/wantMSE), 1e-6},
		{"CosineSimilarity", func() (float64, error) { return ops.CosineSimilarity(ca, cb) },
			dx.Dot(dy) / (dx.Norm2() * dy.Norm2()), 1e-9},
	}
	for _, c := range checks {
		got, err := c.got()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if math.Abs(got-c.want) > c.tol*math.Max(math.Abs(c.want), 1) {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}

	// Foreign compressed types are errors, not panics.
	if _, err := ops.Mean(struct{}{}); err == nil {
		t.Error("Mean of a foreign compressed type should fail")
	}
	if _, err := ops.Dot(ca, struct{}{}); err == nil {
		t.Error("Dot with a foreign compressed type should fail")
	}
}

func TestBlazHasArithOnly(t *testing.T) {
	// blaz adds and scales in compressed space but answers no aggregate
	// or metric without reconstruction, so it must not claim Ops: the
	// query engine then decodes it, and its flags stay truthful.
	cd, err := Lookup("blaz")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cd.(Arith); !ok {
		t.Error("blaz must implement Arith")
	}
	if _, ok := cd.(Ops); ok {
		t.Error("blaz must not implement Ops")
	}
}

func TestGoblazRegionReader(t *testing.T) {
	cd, err := Lookup("goblaz:block=4x4,float=float64,index=int16")
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := cd.(RegionReader)
	if !ok {
		t.Fatal("goblaz must implement RegionReader")
	}
	x := data.Gradient(10, 14)
	c, err := cd.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cd.Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rr.DecompressRegion(c, []int{3, 5}, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if got.At(i, j) != full.At(3+i, 5+j) {
				t.Fatalf("region (%d,%d) = %g, full %g", i, j, got.At(i, j), full.At(3+i, 5+j))
			}
		}
	}
	pt, err := rr.DecompressRegion(c, []int{9, 13}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := pt.Data()[0]; v != full.At(9, 13) {
		t.Errorf("point region = %g, want %g", v, full.At(9, 13))
	}
	if _, err := rr.DecompressRegion(c, []int{99, 0}, []int{1, 1}); err == nil {
		t.Error("out-of-range point region should fail")
	}
	if _, err := rr.DecompressRegion(struct{}{}, []int{0, 0}, []int{1, 1}); err == nil {
		t.Error("foreign compressed type should fail")
	}
	// The other backends must not accidentally claim partial decode.
	for _, spec := range []string{"blaz", "sz:tol=1e-4", "zfp:rate=16"} {
		other, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := other.(RegionReader); ok {
			t.Errorf("codec %q should not implement RegionReader", spec)
		}
	}
}

func TestGoblazExtrema(t *testing.T) {
	x := data.Gradient(10, 14).AddScalar(0.5)
	for _, tc := range []struct {
		spec    string
		decides bool
	}{
		{"goblaz:block=4x4,float=float64,index=int16", true},
		{"goblaz:block=4x4,float=float32,index=int8,keep=0.5,transform=haar", true},
		{"goblaz:block=4x4,transform=identity", false}, // no constant first basis vector
	} {
		cd, err := Lookup(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		ext, ok := cd.(Extrema)
		if !ok {
			t.Fatalf("%s must implement Extrema", tc.spec)
		}
		c, err := cd.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		full, err := cd.Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := ext.Extrema(c)
		if !tc.decides {
			if !errors.Is(err, ErrNotSupported) {
				t.Errorf("%s: Extrema error %v, want ErrNotSupported", tc.spec, err)
			}
			continue
		}
		if err != nil || lo != full.Min() || hi != full.Max() {
			t.Errorf("%s: Extrema = %g, %g, %v; decoded scan %g, %g", tc.spec, lo, hi, err, full.Min(), full.Max())
		}
		if _, _, err := ext.Extrema(struct{}{}); err == nil || errors.Is(err, ErrNotSupported) {
			t.Errorf("foreign compressed type: %v, want a plain error", err)
		}
	}
	for _, spec := range []string{"blaz", "sz:tol=1e-4", "zfp:rate=16"} {
		other, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := other.(Extrema); ok {
			t.Errorf("codec %q should not implement Extrema", spec)
		}
	}
}

func TestSZHonorsErrorBoundOnRoughData(t *testing.T) {
	// Pseudo-random rough data: the bound must hold point-wise anyway.
	x := tensor.New(40, 40)
	for i := range x.Data() {
		x.Data()[i] = math.Sin(float64(i)*12.9898) * 43758.5453
	}
	for _, mode := range []string{"lorenzo", "curvefit"} {
		cd, err := Lookup("sz:mode=" + mode + ",tol=0.5")
		if err != nil {
			t.Fatal(err)
		}
		c, err := cd.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := cd.Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		if e := x.MaxAbsDiff(back); e > 0.5 {
			t.Errorf("mode %s: error %g exceeds bound 0.5", mode, e)
		}
	}
}

func TestParseSpec(t *testing.T) {
	name, p, err := ParseSpec("goblaz:block=4x4,keep=0.5")
	if err != nil || name != "goblaz" || p["block"] != "4x4" || p["keep"] != "0.5" {
		t.Fatalf("ParseSpec = %q, %v, %v", name, p, err)
	}
	name, p, err = ParseSpec("blaz")
	if err != nil || name != "blaz" || len(p) != 0 {
		t.Fatalf("bare name: %q, %v, %v", name, p, err)
	}
}

func TestMalformedSpecs(t *testing.T) {
	bad := []string{
		"",                        // empty
		":tol=1",                  // empty name
		"sz:",                     // trailing colon
		"sz:tol",                  // missing =
		"sz:=1",                   // empty key
		"sz:tol=",                 // empty value
		"sz:tol=1,tol=2",          // duplicate key
		"nosuchcodec",             // unregistered
		"sz:bogus=1",              // unknown parameter
		"sz:tol=abc",              // non-numeric
		"sz:mode=spline",          // unknown mode
		"sz:tol=-1",               // bound must be positive
		"zfp:rate=banana",         // non-integer
		"zfp:rate=0",              // out of range
		"goblaz:block=5x5",        // non-power-of-two block
		"goblaz:block=4y4",        // bad list syntax
		"goblaz:float=float128",   // unknown float type
		"goblaz:index=uint8",      // unknown index type
		"goblaz:transform=fft",    // unknown transform
		"goblaz:keep=0",           // keep fraction out of (0, 1]
		"goblaz:keep=2",           // keep fraction out of (0, 1]
		"blaz:block=8x8",          // blaz takes no parameters
		"goblaz:block=4x4,blok=8", // typo key must not be ignored
	}
	for _, spec := range bad {
		if _, err := Lookup(spec); err == nil {
			t.Errorf("Lookup(%q) should fail", spec)
		}
	}
}

func TestNonPositiveParametersRejected(t *testing.T) {
	// One case per built-in codec: zero or negative sizes must fail with a
	// clear error at the registry layer, not panic downstream.
	for _, tc := range []struct {
		codec string
		specs []string
	}{
		{"goblaz", []string{"goblaz:block=0x8", "goblaz:block=-4x4", "goblaz:block=8x0", "goblaz:block=-1"}},
		{"sz", []string{"sz:tol=0", "sz:tol=-1e-4"}},
		{"zfp", []string{"zfp:rate=0", "zfp:rate=-16"}},
		{"blaz", []string{"blaz:block=0x8"}}, // blaz takes no parameters at all
	} {
		for _, spec := range tc.specs {
			cd, err := Lookup(spec)
			if err == nil {
				t.Errorf("%s: Lookup(%q) = %v, want error", tc.codec, spec, cd.Spec())
				continue
			}
			if !strings.Contains(err.Error(), "codec") {
				t.Errorf("%s: Lookup(%q) error %q should identify the codec layer", tc.codec, spec, err)
			}
		}
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("duplicate Register must panic")
		} else if !strings.Contains(r.(string), "goblaz") {
			t.Errorf("panic %v should name the duplicate codec", r)
		}
	}()
	Register("goblaz", newGoblaz)
}

func TestRegisterRejectsEmptyAndNil(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Factory
	}{{"", newGoblaz}, {"x-nil", nil}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q, %v) must panic", tc.name, tc.f)
				}
			}()
			Register(tc.name, tc.f)
		}()
	}
}

func TestForeignCompressedRejected(t *testing.T) {
	x := data.Gradient(16, 16)
	gob, err := Lookup("goblaz")
	if err != nil {
		t.Fatal(err)
	}
	zfp, err := Lookup("zfp")
	if err != nil {
		t.Fatal(err)
	}
	c, err := zfp.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gob.Decompress(c); err == nil {
		t.Error("decompressing a zfp payload with goblaz should fail")
	}
	if gob.EncodedSize(c) != 0 {
		t.Error("EncodedSize of a foreign payload should be 0")
	}
}

func TestBlazRequires2D(t *testing.T) {
	cd, err := Lookup("blaz")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cd.Compress(data.Gradient(8, 8, 8)); err == nil {
		t.Error("blaz must reject 3-D input")
	}
}

func TestCoreCompressorInteroperates(t *testing.T) {
	c, err := core.NewCompressor(core.DefaultSettings(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Lookup("goblaz:block=4x4")
	if err != nil {
		t.Fatal(err)
	}
	x := data.Gradient(20, 20)
	a, err := c.Compress(x) // compressed by the raw compressor...
	if err != nil {
		t.Fatal(err)
	}
	back, err := cd.Decompress(a) // ...decompressed through the codec seam
	if err != nil {
		t.Fatal(err)
	}
	if e := x.MaxAbsDiff(back); e > 1e-3 {
		t.Errorf("core compressor → registry codec round trip error %g", e)
	}
	want, err := c.Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxAbsDiff(want) != 0 {
		t.Error("registry codec decompresses a core array differently from the core compressor")
	}
}

// TestObserveOpAllocs pins the steady-state cost of recording a codec
// operation: once a (spec, op) pair has its metric children, observing
// it again allocates nothing — it runs on every frame decode,
// decompress and compress.
func TestObserveOpAllocs(t *testing.T) {
	spec := "goblaz:block=8x8,float=float32,index=int8,transform=dct"
	ObserveOp(spec, "decode", 64, time.Microsecond)
	if allocs := testing.AllocsPerRun(100, func() { ObserveOp(spec, "decode", 64, time.Microsecond) }); allocs != 0 {
		t.Errorf("ObserveOp allocates %v objects a call, want 0", allocs)
	}
}
