package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

// smoothInput writes a 24×16 smooth array and returns its path and data.
func smoothInput(t *testing.T, dir string) (string, *tensor.Tensor) {
	t.Helper()
	const rows, cols = 24, 16
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = math.Sin(float64(i) / 7)
	}
	in := filepath.Join(dir, "in.f64")
	writeRaw(t, in, data)
	return in, tensor.FromSlice(data, rows, cols)
}

// The goblaz flags are one spelling of a registry spec: they and the
// equivalent -codec spec write byte-identical files and stores.
func TestGoblazFlagsAreASpec(t *testing.T) {
	dir := t.TempDir()
	in, _ := smoothInput(t, dir)
	flags := []string{"-shape", "24,16", "-block", "8,8", "-float", "float64", "-index", "int8", "-transform", "haar", "-keep", "0.5"}
	spec := []string{"-shape", "24,16", "-codec", "goblaz:block=8x8,float=float64,index=int8,keep=0.5,transform=haar"}
	for _, cmd := range []struct {
		name string
		run  func(args []string) error
	}{
		{"compress", runCompress},
		{"pack", runPack},
	} {
		var files [2][]byte
		for i, args := range [][]string{flags, spec} {
			out := filepath.Join(dir, fmt.Sprintf("%s%d", cmd.name, i))
			paths := []string{in, out}
			if cmd.name == "pack" {
				paths = []string{out, in}
			}
			if err := cmd.run(append(append([]string{}, args...), paths...)); err != nil {
				t.Fatalf("%s %v: %v", cmd.name, args, err)
			}
			blob, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = blob
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: flag-built and -codec-built files differ (%d vs %d bytes)", cmd.name, len(files[0]), len(files[1]))
		}
	}
}

// The container's goblaz payload is the §IV-B stream, byte for byte.
func TestContainerPayloadIsCoreEncode(t *testing.T) {
	dir := t.TempDir()
	in, x := smoothInput(t, dir)
	out := filepath.Join(dir, "out.blz")
	if err := runCompress([]string{"-shape", "24,16", "-block", "8,8", "-index", "int8", in, out}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	spec, payload, ok, err := parseCodecFile(blob)
	if err != nil || !ok {
		t.Fatalf("parseCodecFile: ok=%v err=%v", ok, err)
	}
	if want := "goblaz:block=8x8,float=float32,index=int8,transform=dct"; spec != want {
		t.Errorf("spec = %q, want %q", spec, want)
	}
	c, err := core.NewCompressor(core.Settings{
		BlockShape: []int{8, 8}, FloatType: scalar.Float32, IndexType: scalar.Int8, Transform: transform.DCT,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want) {
		t.Errorf("payload (%d bytes) differs from core.Encode (%d bytes)", len(payload), len(want))
	}
}

// A raw goblaz stream — what compress wrote for the goblaz flags before
// every file was a container — decompresses bit-identically, and info
// prints the same §IV-C lines for it as for the container.
func TestRawStreamStillReads(t *testing.T) {
	dir := t.TempDir()
	in, x := smoothInput(t, dir)
	c, err := core.NewCompressor(core.Settings{
		BlockShape: []int{4, 4}, FloatType: scalar.Float32, IndexType: scalar.Int16, Transform: transform.DCT,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := core.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	raw := filepath.Join(dir, "raw.blz")
	if err := os.WriteFile(raw, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := c.Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "back.f64")
	if err := runDecompress([]string{raw, back}); err != nil {
		t.Fatal(err)
	}
	got, err := readTensor(back, x.Shape())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("element %d: %v, want %v", i, v, want.Data()[i])
		}
	}

	rawInfo, err := captureStdout(t, func() error { return runInfo([]string{raw}) })
	if err != nil {
		t.Fatal(err)
	}
	gcdc := filepath.Join(dir, "out.blz")
	if err := runCompress([]string{"-shape", "24,16", in, gcdc}); err != nil {
		t.Fatal(err)
	}
	boxInfo, err := captureStdout(t, func() error { return runInfo([]string{gcdc}) })
	if err != nil {
		t.Fatal(err)
	}
	head := "codec:        goblaz:block=4x4,float=float32,index=int16,transform=dct\n" +
		fmt.Sprintf("payload:      %d bytes\n", len(stream))
	if !strings.HasPrefix(string(boxInfo), head) || string(boxInfo[len(head):]) != string(rawInfo) {
		t.Errorf("container info:\n%s\nraw info:\n%s", boxInfo, rawInfo)
	}
	if !strings.Contains(string(rawInfo), "kept/block:   16 of 16\n") {
		t.Errorf("raw info lacks the §IV-C lines:\n%s", rawInfo)
	}
}

// FuzzCodecFile checks the container reader: it never panics, and every
// blob it accepts re-frames to its input bytes.
func FuzzCodecFile(f *testing.F) {
	box, err := appendCodecFile(nil, "zfp:rate=8", []byte{1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(box)
	f.Add(box[:5])
	f.Add(append([]byte("GCDC"), 0xFF, 0xFF, 'g'))
	f.Add([]byte{0xBA, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		spec, payload, ok, err := parseCodecFile(blob)
		if err != nil || !ok {
			if ok {
				t.Fatalf("ok with error %v", err)
			}
			return
		}
		again, err := appendCodecFile(nil, spec, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("re-framed %x, want %x", again, blob)
		}
	})
}

// Example_codecFile pins the bytes compress writes: "GCDC", the
// big-endian u16 length of the canonical spec, the spec, then the
// codec's payload. For goblaz the payload is the §IV-B stream (here a
// 4×4 array as one 4×4 int8 block); for zfp:rate=8 it is the 128-bit
// fixed-rate block.
func Example_codecFile() {
	dir, err := os.MkdirTemp("", "goblaz-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	in := filepath.Join(dir, "in.f64")
	raw := make([]byte, 16*8)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(float64(i)/16))
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		panic(err)
	}
	for _, args := range [][]string{
		{"-index", "int8"},
		{"-codec", "zfp:rate=8"},
	} {
		out := filepath.Join(dir, "out")
		if err := runCompress(append(append([]string{"-shape", "4,4"}, args...), in, out)); err != nil {
			panic(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			panic(err)
		}
		n := 6 + int(binary.BigEndian.Uint16(blob[4:]))
		fmt.Printf("head    %x\nspec    %s\npayload %x\n", blob[:6], blob[6:n], blob[n:])
	}
	// Output:
	// compressed 128 → 56 bytes with goblaz:block=4x4,float=float32,index=int8,transform=dct (ratio 2.29)
	// head    474344430037
	// spec    goblaz:block=4x4,float=float32,index=int8,transform=dct
	// payload b92000000000000000100000000000000013fffffffffffffffc00000000000000100000000000000013fffcffc00000ec04007fedffb4fb
	// compressed 128 → 28 bytes with zfp:rate=8 (ratio 4.57)
	// head    47434443000a
	// spec    zfp:rate=8
	// payload 502f08020400000004000000c000b6000222200221c000c002000000
}
