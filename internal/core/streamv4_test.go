package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bits"
	"repro/internal/data"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

// The v3 → v4 differential: every frame is encoded as v3 and as v4, and
// both decoders must return the same array from either stream, field for
// field — N by bits, F at its width, and the flags and masks. The
// kernels read nothing else, so every answer follows.

// corpusFrames are the goblaz frame sets of the benchmark corpus, built
// as bench/corpus.go builds them, with the workload that reads each.
func corpusFrames() []struct {
	name   string
	s      Settings
	frames []*tensor.Tensor
} {
	gradients := func(n int, shape ...int) []*tensor.Tensor {
		base := data.Gradient(shape...)
		out := make([]*tensor.Tensor, n)
		for k := range out {
			out[k] = base.AddScalar(0.1 * float64(k))
		}
		return out
	}
	live := gradients(64, 64, 64)
	rng := rand.New(rand.NewSource(128))
	for _, x := range live {
		for i := range x.Data() {
			x.Data()[i] += 0.01 * rng.NormFloat64()
		}
	}
	fission := data.FissionSeries(1, 16, 16, 16)
	first := sort.SearchInts(data.FissionTimeSteps, 686)
	var fissionFrames []*tensor.Tensor
	for k := 0; k < 8; k++ {
		fissionFrames = append(fissionFrames, fission[(first+k)%len(fission)])
	}
	settings := func(it scalar.IndexType, bs ...int) Settings {
		s := DefaultSettings(bs...)
		s.IndexType = it
		return s
	}
	return []struct {
		name   string
		s      Settings
		frames []*tensor.Tensor
	}{
		{"grid (compressed_analytics)", settings(scalar.Int8, 8, 8), gradients(48, 256, 256)},
		{"tiles (cluster_scatter)", settings(scalar.Int8, 8, 8), gradients(48, 32, 32)},
		{"vol gradient (serve_mixed)", settings(scalar.Int16, 4, 4, 4), gradients(8, 16, 16, 16)},
		{"vol fission (serve_mixed)", settings(scalar.Int16, 8, 8, 8), fissionFrames},
		{"live (ingest_live)", settings(scalar.Int16, 8, 8), live},
	}
}

// sameFields fails the test unless a and b hold the same fields: shape,
// blocks, settings, N by bits, F at its width, and the flags and masks.
func sameFields(t *testing.T, what string, a, b *CompressedArray) {
	t.Helper()
	if !tensor.EqualShape(a.Shape, b.Shape) || !tensor.EqualShape(a.Blocks, b.Blocks) || !a.Settings.equal(b.Settings) {
		t.Fatalf("%s: shape, blocks or settings differ", what)
	}
	if !slices.EqualFunc(a.N, b.N, sameBits) {
		t.Fatalf("%s: N differs", what)
	}
	if !a.F.Equal(b.F) {
		t.Fatalf("%s: F differs", what)
	}
	if !bytes.Equal(a.occ, b.occ) || (a.occ == nil) != (b.occ == nil) {
		t.Fatalf("%s: flags and masks differ", what)
	}
}

// streamsOf returns a's v3 and v4 streams, and checks that they share
// every byte before the runs but the magic.
func streamsOf(t *testing.T, what string, a *CompressedArray) (v3, v4 []byte) {
	t.Helper()
	v3, err := encodeWith(a, forceV3)
	if err != nil {
		t.Fatal(err)
	}
	v4, err = encodeWith(a, forceV4)
	if err != nil {
		t.Fatal(err)
	}
	if v3[0] != magicV3 || v4[0] != magicV4 {
		t.Fatalf("%s: magics %#x and %#x", what, v3[0], v4[0])
	}
	size, err := CompressedSizeBits(a.Settings, a.Shape)
	if err != nil {
		t.Fatal(err)
	}
	var l layout
	switch a.Settings.IndexType {
	case scalar.Int16:
		l, err = layoutOf(a, a.F.i16, size, new(v4Code), forceV3)
	case scalar.Int32:
		l, err = layoutOf(a, a.F.i32, size, new(v4Code), forceV3)
	default:
		l, err = layoutOf(a, a.F.i64, size, new(v4Code), forceV3)
	}
	if err != nil {
		t.Fatal(err)
	}
	if p := l.head + l.occ; !bytes.Equal(v3[1:p], v4[1:p]) {
		t.Fatalf("%s: v4's header, flags or masks differ from v3's", what)
	}
	return v3, v4
}

func TestStreamV4MatchesV3(t *testing.T) {
	check := func(name string, a *CompressedArray) (picked bool) {
		v3, v4 := streamsOf(t, name, a)
		for _, d := range decoders {
			x3, err := d.decode(v3)
			if err != nil {
				t.Fatalf("%s: %s decode of v3: %v", name, d.name, err)
			}
			x4, err := d.decode(v4)
			if err != nil {
				t.Fatalf("%s: %s decode of v4: %v", name, d.name, err)
			}
			sameFields(t, name+"/"+d.name, x4, x3)
		}
		return mustEncode(t, a)[0] == magicV4
	}
	frames, picked, total := v3DiffFrames(t), 0, 0
	for it := scalar.Int16; it <= scalar.Int64; it++ {
		for _, keep := range []float64{1, 0.5} {
			for _, f := range frames {
				bs := []int{8, 8}
				if f.frame.Dims() == 3 {
					bs = []int{4, 4, 4}
				}
				s := DefaultSettings(bs...)
				s.IndexType = it
				if keep < 1 {
					mask, err := KeepLowFrequency(bs, keep)
					if err != nil {
						t.Fatal(err)
					}
					s.Mask = mask
				}
				c := mustCompressor(t, s)
				if check(fmt.Sprintf("%s/%v/keep=%g", f.name, it, keep), compress(t, c, f.frame)) {
					picked++
				}
				total++
			}
		}
	}
	for _, set := range corpusFrames() {
		if set.s.IndexType == scalar.Int8 {
			continue
		}
		c := mustCompressor(t, set.s)
		for k, x := range set.frames {
			if check(fmt.Sprintf("%s/%d", set.name, k), compress(t, c, x)) {
				picked++
			}
			total++
		}
	}
	if picked == 0 {
		t.Fatalf("Encode picked v4 for none of %d frames", total)
	}
}

// TestEncodedSizeMatchesEncode: EncodedSize is the length of the stream
// Encode writes, and Encode writes v4 exactly where it is strictly
// shorter than v3 — never for int8 — over dense, masked and mixed frames
// at every index width.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	frames := []struct {
		name string
		x    *tensor.Tensor
	}{
		{"noise (dense)", randomTensor(1, 32, 32)},
		{"zero (all masked)", tensor.New(32, 32)},
		{"gradient (mixed)", data.Gradient(32, 32)},
		{"live", liveTensor()},
	}
	versions := map[byte]int{}
	for it := scalar.Int8; it <= scalar.Int64; it++ {
		s := DefaultSettings(8, 8)
		s.IndexType = it
		c := mustCompressor(t, s)
		for _, f := range frames {
			a := compress(t, c, f.x)
			checkEncodedSize(t, fmt.Sprintf("%s/%v", f.name, it), a)
			versions[mustEncode(t, a)[0]]++
		}
	}
	// A frame of indices spread over the whole range, which v3 stores
	// best, and one of ±r and small indices, which v4 does.
	c := mustCompressor(t, int16Settings())
	rng := rand.New(rand.NewSource(3))
	spread, small := c.newArray([]int{4, 64}, []int{1, 16}), c.newArray([]int{4, 64}, []int{1, 16})
	for k := range spread.N {
		spread.N[k], small.N[k] = 1, 1
	}
	for i := range spread.F.i16 {
		spread.F.i16[i] = int16(rng.Intn(65535) - 32767)
		small.F.i16[i] = int16(rng.Intn(7) - 3)
		if i%16 == 0 {
			small.F.i16[i] = 32767
		}
	}
	for _, f := range []struct {
		name  string
		a     *CompressedArray
		magic byte
	}{{"spread", spread, magicV3}, {"small", small, magicV4}} {
		checkEncodedSize(t, f.name, f.a)
		if got := mustEncode(t, f.a)[0]; got != f.magic {
			t.Errorf("%s: Encode wrote %#x, want %#x", f.name, got, f.magic)
		}
		versions[f.magic]++
	}
	if versions[magicV3] == 0 || versions[magicV4] == 0 {
		t.Fatalf("streams written by version: %v; want both", versions)
	}
}

// checkEncodedSize checks EncodedSize against Encode, and Encode's pick
// against both versions.
func checkEncodedSize(t *testing.T, what string, a *CompressedArray) {
	t.Helper()
	stream := mustEncode(t, a)
	if n, err := EncodedSize(a); err != nil || n != len(stream) {
		t.Fatalf("%s: EncodedSize = %d, %v; Encode wrote %d bytes", what, n, err, len(stream))
	}
	v3, err := encodeWith(a, forceV3)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case a.Settings.IndexType == scalar.Int8:
		if !bytes.Equal(stream, v3) {
			t.Fatalf("%s: an int8 frame was not written as v3", what)
		}
	case stream[0] == magicV4:
		if len(stream) >= len(v3) {
			t.Fatalf("%s: v4 of %d bytes written over v3 of %d", what, len(stream), len(v3))
		}
	default:
		v4, err := encodeWith(a, forceV4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream, v3) || v4[0] == magicV4 && len(v4) < len(v3) {
			t.Fatalf("%s: v3 of %d bytes written over v4 of %d", what, len(v3), len(v4))
		}
	}
}

func int16Settings() Settings {
	s := DefaultSettings(1, 16)
	s.IndexType = scalar.Int16
	return s
}

// TestV4CodeIsHuffman: over random symbol counts the code is complete,
// no longer than v4MaxLen, and where a Huffman code needs no longer codes
// exactly as short in total; counts that need longer codes are capped.
func TestV4CodeIsHuffman(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(what string, h *[v4Symbols]int) *v4Code {
		t.Helper()
		var c v4Code
		total := c.build(h)
		kraft, want := 0, 8+4*c.n
		for s, l := range c.lens[:c.n] {
			if l > v4MaxLen {
				t.Fatalf("%s: symbol %d has a %d-bit code", what, s, l)
			}
			if l > 0 {
				kraft += 1 << (v4MaxLen - l)
			}
			if h[s] > 0 && l == 0 {
				t.Fatalf("%s: symbol %d occurs and has no code", what, s)
			}
			want += h[s] * (int(l) + extraBits(s))
		}
		if kraft != 1<<v4MaxLen || c.lens[c.n-1] == 0 {
			t.Fatalf("%s: lengths %v are not a complete code ending on a used symbol", what, c.lens[:c.n])
		}
		if total != want {
			t.Fatalf("%s: build says %d bits, the lengths take %d", what, total, want)
		}
		return &c
	}
	for round := 0; round < 300; round++ {
		var h [v4Symbols]int
		for s := range h[:2+rng.Intn(v4Symbols-1)] {
			if rng.Intn(3) > 0 {
				h[s] = 1 + rng.Intn(1+rng.Intn(5000))
			}
		}
		used := 0
		for _, f := range h {
			if f > 0 {
				used++
			}
		}
		if used == 0 {
			continue
		}
		c := check(fmt.Sprintf("round %d", round), &h)
		if used < 2 {
			continue
		}
		ref, err := bits.BuildHuffman(h[:])
		if err != nil {
			t.Fatal(err)
		}
		cost, refCost, deepest := 0, 0, 0
		for s, f := range h {
			cost += f * int(c.lens[s])
			refCost += f * int(ref.Lengths[s])
			deepest = max(deepest, int(ref.Lengths[s]))
		}
		if deepest <= v4MaxLen && cost != refCost {
			t.Fatalf("round %d: code costs %d bits, Huffman %d", round, cost, refCost)
		}
	}
	// Fibonacci counts make a Huffman code as deep as it gets.
	var h [v4Symbols]int
	a, b := 1, 1
	for s := range h[:20] {
		h[s] = a
		a, b = b, a+b
	}
	check("fibonacci", &h)
	// One symbol takes one bit, and another symbol the other code.
	h = [v4Symbols]int{}
	h[7] = 40
	if c := check("one symbol", &h); c.lens[7] != 1 || c.lens[0] != 1 {
		t.Fatalf("one symbol: lengths %v", c.lens[:c.n])
	}
	h = [v4Symbols]int{}
	h[0] = 40
	if c := check("one symbol, zero", &h); c.lens[0] != 1 || c.lens[1] != 1 {
		t.Fatalf("one symbol, zero: lengths %v", c.lens[:c.n])
	}
}

// v4Stream writes by hand the v4 stream with v3Stream's header, flags and
// masks whose code lists lens, and whose runs hold the indices runs coded
// under it.
func v4Stream(it scalar.IndexType, n []uint32, masks []int, lens []uint8, runs []int64) []byte {
	out := v3Stream(it, n, masks, nil)
	out[0] = magicV4
	var w bits.Writer
	w.WriteBits(uint64(len(lens)), 8)
	for _, l := range lens {
		w.WriteBits(uint64(l), 4)
	}
	c := v4Code{n: len(lens)}
	copy(c.lens[:], lens)
	c.assign()
	for _, v := range runs {
		sym, extra, x := symbolOf(v, int64(it.Radius()))
		w.WriteBits(uint64(c.codes[sym]), uint(c.lens[sym]))
		w.WriteBits(extra, x)
	}
	return append(out, w.Bytes()...)
}

// TestDecodeRejectsMalformedV4: a v4 code that is over-subscribed,
// incomplete, over long, of no symbol or of too many, or that lists an
// unused last symbol; extra bits past the end; set pad bits; an index
// more than the masks mark; a trailing byte; and int8 indices are
// refused by both decoders, without a panic.
func TestDecodeRejectsMalformedV4(t *testing.T) {
	one := uint32(0x3f800000) // 1.0f
	// Block 0 dense, 1 2 3 4; block 1 masked at positions 0 and 2, 5 and
	// −300: symbols 3, 5, 5, 7, 7 and 20, all of two-bit codes.
	lens := make([]uint8, 21)
	for _, s := range []int{3, 5, 7, 20} {
		lens[s] = 2
	}
	stream := func(lens []uint8, runs ...int64) []byte {
		return v4Stream(scalar.Int16, []uint32{one, one}, []int{-1, 0b1010}, lens, append([]int64{1, 2, 3, 4}, runs...))
	}
	good := stream(lens, 5, -300)
	code := len(v3Stream(scalar.Int16, []uint32{one, one}, []int{-1, 0b1010}, nil)) // the byte holding n
	patch := func(at int, b byte) []byte {
		s := slices.Clone(good)
		s[at] = b
		return s
	}
	with := func(s, l int) []uint8 {
		out := slices.Clone(lens)
		out[s] = uint8(l)
		return out
	}
	padBit := slices.Clone(good)
	padBit[len(padBit)-1] |= 1 // 118 bits of code and runs, two of pad
	int8s := v3Stream(scalar.Int8, []uint32{one}, []int{-1}, []int64{1, 2, 3, 4})
	int8s[0] = magicV4
	bad := map[string][]byte{
		"over-subscribed code":    stream(with(3, 1), 5, -300),
		"incomplete code":         stream(with(3, 3), 5, -300),
		"one symbol of one bit":   stream([]uint8{0, 0, 0, 1}, 1, 1, 1, 1, 1, 1),
		"over-long code":          patch(code+2, good[code+2]&0xf0|0x0a), // symbol 3's length 2 → 10
		"no symbols":              patch(code, 0),
		"too many symbols":        patch(code, 34),
		"unused last symbol":      stream(append(slices.Clone(lens), 0), 5, -300),
		"extra bits past the end": good[:len(good)-1],
		"pad bit set":             padBit,
		"an index more":           stream(lens, 5, -300, -300),
		"trailing byte":           append(slices.Clone(good), 0),
		"int8 indices":            int8s,
	}
	for _, d := range decoders {
		a, err := d.decode(good)
		if err != nil {
			t.Fatalf("%s decode: intact stream: %v", d.name, err)
		}
		if got := a.indices(); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 0, -300, 0}) {
			t.Fatalf("%s decode: indices %v", d.name, got)
		}
		for what, data := range bad {
			if _, err := d.decode(data); err == nil {
				t.Errorf("%s decode: %s accepted", d.name, what)
			}
		}
	}
}

// v4FuzzArray builds an int16 array of 4×4 blocks from data: one byte
// for the block count and one for which blocks have a negative N (which
// keeps them dense), then one selector byte an index — zero, ±r, a small
// or a wide index, or the previous one again — and zeros once data runs
// out, so whole blocks, and whole frames, of zeros come up.
func v4FuzzArray(t *testing.T, data []byte) *CompressedArray {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nb, neg := 1+int(next()%6), next()
	c := mustCompressor(t, DefaultSettings(4, 4))
	a := c.newArray([]int{4, 4 * nb}, []int{1, nb})
	for k := range a.N {
		a.N[k] = 1
		if neg>>k&1 != 0 {
			a.N[k] = -1
		}
	}
	prev := int16(0)
	for i := range a.F.i16 {
		switch b := next(); b % 8 {
		case 2:
			prev = math.MaxInt16
		case 3:
			prev = -math.MaxInt16
		case 4:
			prev = int16(int8(next()))
		case 5:
			prev = int16(int8(next())) << 6
		case 6:
			prev = int16(next())<<8 | int16(next())
			if prev == math.MinInt16 {
				prev++
			}
		case 7: // the previous index again
		default:
			prev = 0
		}
		a.F.i16[i] = prev
	}
	return a
}

// FuzzStreamV4RoundTrip: every int16 array encodes, decodes to the same
// array through both decoders and re-encodes to the same bytes, in the
// version Encode picks and as v4.
func FuzzStreamV4RoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0})                                        // all zero
	f.Add([]byte{2, 1, 2, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}) // one symbol, ±r
	f.Add([]byte{3, 2, 4, 1, 4, 0xff, 3, 5, 9, 6, 0x80, 0x00, 6, 0x7f, 0xff, 2})
	f.Add(bytes.Repeat([]byte{6, 0x12, 0x34, 4, 0xfe}, 40)) // wide indices: v3 is shorter
	f.Add(bytes.Repeat([]byte{4, 1, 4, 0xff, 0, 2}, 40))    // small ones: v4 is
	f.Fuzz(func(t *testing.T, data []byte) {
		a := v4FuzzArray(t, data)
		stream, err := Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := EncodedSize(a); err != nil || n != len(stream) {
			t.Fatalf("EncodedSize = %d, %v; Encode wrote %d bytes", n, err, len(stream))
		}
		v4, err := encodeWith(a, forceV4)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			stream []byte
			choice streamChoice
		}{{stream, pickSmaller}, {v4, forceV4}} {
			for _, d := range decoders {
				back, err := d.decode(s.stream)
				if err != nil {
					t.Fatalf("%s decode of %#x stream: %v", d.name, s.stream[0], err)
				}
				if !sameArray(back, a) {
					t.Fatalf("%s decode of %#x stream differs from the array", d.name, s.stream[0])
				}
				again, err := encodeWith(back, s.choice)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, s.stream) {
					t.Fatalf("%s decode of %#x stream re-encodes to other bytes", d.name, s.stream[0])
				}
			}
		}
	})
}
