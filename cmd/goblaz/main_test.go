package main

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensor"
)

func writeRaw(t *testing.T, path string, data []float64) {
	t.Helper()
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompressDecompressRoundTripCLI(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	blz := filepath.Join(dir, "out.blz")
	back := filepath.Join(dir, "back.f64")

	const rows, cols = 24, 16
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = math.Sin(float64(i) / 7)
	}
	writeRaw(t, in, data)

	if err := runCompress([]string{"-shape", "24,16", "-block", "8,8", in, blz}); err != nil {
		t.Fatal(err)
	}
	if err := runInfo([]string{blz}); err != nil {
		t.Fatal(err)
	}
	if err := runDecompress([]string{blz, back}); err != nil {
		t.Fatal(err)
	}
	got, err := readTensor(back, []int{rows, cols})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromSlice(data, rows, cols)
	if e := got.MaxAbsDiff(want); e > 0.01 {
		t.Errorf("CLI round trip error %g", e)
	}
}

func TestStatsCLI(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	writeRaw(t, in, data)
	if err := runStats([]string{"-shape", "8,8", "-block", "4,4", in}); err != nil {
		t.Fatal(err)
	}
	// With pruning.
	if err := runStats([]string{"-shape", "8,8", "-block", "4,4", "-keep", "0.5", in}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	writeRaw(t, in, make([]float64, 16))

	if err := runCompress([]string{in, "out"}); err == nil {
		t.Error("missing -shape should fail")
	}
	if err := runCompress([]string{"-shape", "4,4", in}); err == nil {
		t.Error("missing OUT should fail")
	}
	if err := runCompress([]string{"-shape", "5,5", in, filepath.Join(dir, "o")}); err == nil {
		t.Error("shape/file size mismatch should fail")
	}
	if err := runCompress([]string{"-shape", "4,4", "-block", "3,3", in, filepath.Join(dir, "o")}); err == nil {
		t.Error("non-power-of-two block should fail")
	}
	if err := runDecompress([]string{"nonexistent", "out"}); err == nil {
		t.Error("missing input should fail")
	}
	if err := runDecompress([]string{in}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := runInfo([]string{in}); err == nil {
		t.Error("info on raw file should fail (bad magic)")
	}
	if err := runStats([]string{"-shape", "4,4"}); err == nil {
		t.Error("stats without file should fail")
	}
	const keepErr = "goblaz keep fraction 1.5 out of (0, 1]"
	if err := runCompress([]string{"-shape", "4,4", "-keep", "1.5", in, filepath.Join(dir, "o")}); err == nil || !strings.Contains(err.Error(), keepErr) {
		t.Errorf("compress -keep 1.5: err = %v, want %q", err, keepErr)
	}
	if err := runPack([]string{"-shape", "4,4", "-keep", "1.5", filepath.Join(dir, "o.gbz"), in}); err == nil || !strings.Contains(err.Error(), keepErr) {
		t.Errorf("pack -keep 1.5: err = %v, want %q", err, keepErr)
	}
}

func TestCodecFlagRoundTripCLI(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	// Smooth 2-D data: every backend (including the very lossy blaz
	// baseline) reconstructs it within a small bound.
	const rows, cols = 24, 16
	data := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			data[r*cols+c] = float64(r)/rows + float64(c)/cols
		}
	}
	writeRaw(t, in, data)
	want := tensor.FromSlice(data, rows, cols)

	for _, tc := range []struct {
		spec string
		tol  float64
	}{
		{"zfp:rate=32", 1e-4},
		{"sz:mode=curvefit,tol=1e-4", 1e-4},
		{"blaz", 0.05},
		{"goblaz:block=8x8,float=float64", 1e-3},
	} {
		out := filepath.Join(dir, "out.bin")
		back := filepath.Join(dir, "back.f64")
		if err := runCompress([]string{"-shape", "24,16", "-codec", tc.spec, in, out}); err != nil {
			t.Fatalf("%s: compress: %v", tc.spec, err)
		}
		if err := runInfo([]string{out}); err != nil {
			t.Fatalf("%s: info: %v", tc.spec, err)
		}
		// No flags needed: the container embeds the codec spec.
		if err := runDecompress([]string{out, back}); err != nil {
			t.Fatalf("%s: decompress: %v", tc.spec, err)
		}
		got, err := readTensor(back, []int{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		if e := got.MaxAbsDiff(want); e > tc.tol {
			t.Errorf("%s: CLI round trip error %g exceeds %g", tc.spec, e, tc.tol)
		}
	}
}

func TestCodecFlagStatsAndErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	writeRaw(t, in, make([]float64, 64))

	if err := runStats([]string{"-shape", "8,8", "-codec", "zfp:rate=16", in}); err != nil {
		t.Fatalf("stats -codec: %v", err)
	}
	if err := runCodecs(nil); err != nil {
		t.Fatalf("codecs: %v", err)
	}
	if err := runCodecs([]string{"extra"}); err == nil {
		t.Error("codecs with arguments should fail")
	}
	out := filepath.Join(dir, "out.bin")
	if err := runCompress([]string{"-shape", "8,8", "-codec", "nosuch", in, out}); err == nil {
		t.Error("unknown codec spec should fail")
	}
	if err := runCompress([]string{"-shape", "8,8", "-codec", "zfp:rate=banana", in, out}); err == nil {
		t.Error("malformed codec spec should fail")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 3, 224,224 ")
	if err != nil || len(got) != 3 || got[0] != 3 || got[2] != 224 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("3,x"); err == nil {
		t.Error("bad int should fail")
	}
}

func TestParseOptionsDefaults(t *testing.T) {
	o, rest, err := parseOptions("t", []string{"-shape", "8,8", "a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != "a" {
		t.Fatalf("rest = %v", rest)
	}
	if want := "goblaz:block=4x4,float=float32,index=int16,transform=dct"; o.spec != want {
		t.Fatalf("default spec = %q, want %q", o.spec, want)
	}
	// The goblaz flags are checked where their spec is resolved.
	for _, flags := range [][]string{
		{"-float", "float128"},
		{"-index", "uint8"},
		{"-transform", "fft"},
	} {
		o, _, err := parseOptions("t", append([]string{"-shape", "8,8"}, flags...), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.Lookup(o.spec); err == nil {
			t.Errorf("%v: spec %q should not resolve", flags, o.spec)
		}
	}
}
