package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

func TestCompressionRatioPaperExamples(t *testing.T) {
	// §IV-C: input (3,224,224) of 64-bit elements, blocks (4,4,4),
	// float32, int16, no pruning → ratio ≈ 2.91.
	s := DefaultSettings(4, 4, 4)
	ratio, err := CompressionRatio(s, []int{3, 224, 224}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-2.91) > 0.01 {
		t.Errorf("ratio = %.4f, paper says ≈2.91", ratio)
	}
	// int8 and pruning half the indices → ≈10.66.
	mask, err := KeepLowFrequency([]int{4, 4, 4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s.IndexType = scalar.Int8
	s.Mask = mask
	ratio, err = CompressionRatio(s, []int{3, 224, 224}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-10.66) > 0.01 {
		t.Errorf("ratio = %.4f, paper says ≈10.66", ratio)
	}
}

func TestCompressionRatioValidation(t *testing.T) {
	s := DefaultSettings(4, 4)
	if _, err := CompressionRatio(s, []int{8}, 64); err == nil {
		t.Error("dims mismatch should fail")
	}
	bad := s
	bad.BlockShape = []int{3, 3}
	if _, err := CompressionRatio(bad, []int{9, 9}, 64); err == nil {
		t.Error("invalid settings should fail")
	}
}

func TestCompressedSizeBitsMatchesEncodedLength(t *testing.T) {
	for _, cfg := range []struct {
		s     Settings
		shape []int
	}{
		{DefaultSettings(4, 4), []int{16, 16}},
		{DefaultSettings(4, 4), []int{13, 7}},
		{func() Settings {
			s := DefaultSettings(4, 4)
			s.IndexType = scalar.Int8
			mask, _ := KeepLowFrequency([]int{4, 4}, 0.5)
			s.Mask = mask
			return s
		}(), []int{32, 32}},
		{func() Settings {
			s := DefaultSettings(8)
			s.FloatType = scalar.Float64
			return s
		}(), []int{100}},
	} {
		c, err := NewCompressor(cfg.s)
		if err != nil {
			t.Fatal(err)
		}
		x := smoothTensor(3, cfg.shape...)
		a, err := c.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		data := encodeV2(t, a)
		wantBits, err := CompressedSizeBits(cfg.s, cfg.shape)
		if err != nil {
			t.Fatal(err)
		}
		// Encode adds 8 magic bits + 2 transform bits beyond the §IV-C
		// inventory and pads to a whole byte.
		extra := int64(8 + 2)
		wantBytes := (wantBits + extra + 7) / 8
		if int64(len(data)) != wantBytes {
			t.Errorf("shape %v: encoded %d bytes, formula says %d", cfg.shape, len(data), wantBytes)
		}
	}
}

// encodeV2 writes a as a v2 stream — the encoder before v3: header and
// N, the pad, then all K indices of every block, however a holds them.
func encodeV2(t testing.TB, a *CompressedArray) []byte {
	t.Helper()
	if _, err := CompressedSizeBits(a.Settings, a.Shape); err != nil {
		t.Fatal(err)
	}
	var w bits.Writer
	writeHeader(&w, a, magicV2)
	w.WriteBits(0, uint(-w.Len()&7))
	for _, v := range a.indices() {
		w.WriteBits(uint64(v), uint(a.Settings.IndexType.Bits()))
	}
	return w.Bytes()
}

// v1Of rewrites a's v2 stream as v1: the same header and N, F moved back
// against N, and the pad moved to the end.
func v1Of(t *testing.T, a *CompressedArray, v2 []byte) []byte {
	t.Helper()
	size, err := CompressedSizeBits(a.Settings, a.Shape)
	if err != nil {
		t.Fatal(err)
	}
	fBits := a.NumBlocks() * a.Kept() * a.Settings.IndexType.Bits()
	var w bits.Writer
	w.AppendBits(v2, int(size)+10-fBits) // magic through N
	w.AppendBits(v2[len(v2)-fBits/8:], fBits)
	v1 := w.Bytes()
	v1[0] = magicV1
	return v1
}

// sameArray reports whether a and b hold the same array: shape, settings,
// N by bits, and every index at every position, whichever blocks either
// stores masked.
func sameArray(a, b *CompressedArray) bool {
	return tensor.EqualShape(a.Shape, b.Shape) && tensor.EqualShape(a.Blocks, b.Blocks) &&
		a.Settings.equal(b.Settings) && slices.EqualFunc(a.N, b.N, sameBits) &&
		slices.Equal(a.indices(), b.indices())
}

// TestStreamV2IsV1Length: over the dense oracle's matrix (every index ×
// float type, masked and not, 1-D to 4-D, non-dividing shapes), a v2
// stream is exactly as long as the v1 stream of the same array and as
// the §IV-C inventory plus magic and transform rounded up to a byte, and
// both streams decode, through either decoder, to the same array.
func TestStreamV2IsV1Length(t *testing.T) {
	for _, cfg := range denseConfigs(t) {
		a := compress(t, mustCompressor(t, cfg.s), cfg.mk(1, cfg.shape...))
		v2 := encodeV2(t, a)
		v1 := v1Of(t, a, v2)
		size, err := CompressedSizeBits(a.Settings, a.Shape)
		if err != nil {
			t.Fatal(err)
		}
		if want := int((size + 10 + 7) / 8); len(v2) != len(v1) || len(v2) != want {
			t.Errorf("%s: v2 %d bytes, v1 %d, size formula %d", cfg.name, len(v2), len(v1), want)
		}
		for _, stream := range [][]byte{v1, v2} {
			for _, d := range decoders {
				back, err := d.decode(stream)
				if err != nil {
					t.Fatalf("%s: %s decode of %#x stream: %v", cfg.name, d.name, stream[0], err)
				}
				if !back.F.Equal(a.F) || !sameArray(back, a) {
					t.Fatalf("%s: %s decode of %#x stream gives a different array", cfg.name, d.name, stream[0])
				}
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	configs := []Settings{
		DefaultSettings(4, 4),
		func() Settings {
			s := DefaultSettings(8, 8)
			s.FloatType = scalar.Float64
			s.IndexType = scalar.Int8
			return s
		}(),
		func() Settings {
			s := DefaultSettings(4, 4, 4)
			s.FloatType = scalar.Float16
			s.Transform = transform.Haar
			return s
		}(),
		func() Settings {
			s := DefaultSettings(4, 4)
			s.FloatType = scalar.BFloat16
			mask, _ := KeepLowFrequency([]int{4, 4}, 0.3)
			s.Mask = mask
			return s
		}(),
	}
	shapes := [][]int{{16, 16}, {20, 12}, {8, 8, 8}, {10, 10}}
	for i, s := range configs {
		c, err := NewCompressor(s)
		if err != nil {
			t.Fatal(err)
		}
		x := smoothTensor(int64(i), shapes[i]...)
		a, err := c.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("config %d: decode: %v", i, err)
		}
		if !back.Settings.equal(a.Settings) {
			t.Fatalf("config %d: settings round trip failed", i)
		}
		got, want := back.indices(), a.indices()
		if len(got) != len(want) {
			t.Fatalf("config %d: F length %d vs %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("config %d: F[%d] = %d vs %d", i, j, got[j], want[j])
			}
		}
		for j := range a.N {
			if back.N[j] != a.N[j] && !(math.IsNaN(back.N[j]) && math.IsNaN(a.N[j])) {
				t.Fatalf("config %d: N[%d] = %g vs %g", i, j, back.N[j], a.N[j])
			}
		}
		// Decompressing the decoded array must give identical output.
		y1, err := c.Decompress(a)
		if err != nil {
			t.Fatal(err)
		}
		y2, err := c.Decompress(back)
		if err != nil {
			t.Fatal(err)
		}
		if y1.MaxAbsDiff(y2) != 0 {
			t.Fatalf("config %d: decompressed mismatch", i)
		}
	}
}

func TestDecodeRejectsCorruptStreams(t *testing.T) {
	c, _ := NewCompressor(DefaultSettings(4, 4))
	a, _ := c.Compress(smoothTensor(1, 16, 16))
	data, _ := Encode(a)

	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("corrupted magic should fail")
	}
	// Truncated stream.
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Error("truncated stream should fail")
	}
	// Empty stream.
	if _, err := Decode(nil); err == nil {
		t.Error("empty stream should fail")
	}
	// Garbage.
	if _, err := Decode([]byte{0xB7, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("garbage after magic should fail")
	}
}

func TestEncodeValidatesSettings(t *testing.T) {
	a := &CompressedArray{
		Shape:    []int{4},
		Blocks:   []int{1},
		N:        []float64{1},
		F:        Indices{i16: []int16{1}},
		Settings: Settings{BlockShape: []int{3}},
	}
	if _, err := Encode(a); err == nil {
		t.Error("encoding with invalid settings should fail")
	}
	b := &CompressedArray{
		Shape:    []int{4},
		Blocks:   []int{1},
		N:        []float64{1},
		F:        Indices{i16: []int16{1, 2, 3}}, // wrong length
		Settings: DefaultSettings(4),
	}
	if _, err := Encode(b); err == nil {
		t.Error("encoding with inconsistent F length should fail")
	}
}

func TestActualBytesMatchRatioRoughly(t *testing.T) {
	// For a large array, bytes-on-the-wire must approach the asymptotic
	// ratio: 256×256 float64 input = 512 KiB; ratio ≈ 3.9 for 4×4 blocks
	// float32/int16.
	s := DefaultSettings(4, 4)
	c, _ := NewCompressor(s)
	x := smoothTensor(1, 256, 256)
	a, _ := c.Compress(x)
	data := encodeV2(t, a)
	inputBytes := 256 * 256 * 8
	measured := float64(inputBytes) / float64(len(data))
	asymptotic, _ := CompressionRatio(s, []int{256, 256}, 64)
	if math.Abs(measured-asymptotic)/asymptotic > 0.02 {
		t.Errorf("measured ratio %.3f vs asymptotic %.3f", measured, asymptotic)
	}
	// v3 never exceeds v2 by more than the flags and its two pads.
	size, err := CompressedSizeBits(s, []int{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := len(mustEncode(t, a)), int((size+7)/8)+(a.NumBlocks()+7)/8+2; got > limit {
		t.Errorf("v3 stream %d bytes, more than the §IV-C size plus flags and pads (%d)", got, limit)
	}
}
