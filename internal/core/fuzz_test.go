package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

// FuzzDecode exercises the stream parser with arbitrary bytes: it must
// never panic or over-allocate, only return errors or structurally
// consistent arrays. (Run with `go test -fuzz FuzzDecode` for a real
// campaign; as a plain test it replays the seed corpus.)
func FuzzDecode(f *testing.F) {
	c, err := NewCompressor(DefaultSettings(4, 4))
	if err != nil {
		f.Fatal(err)
	}
	x := tensor.New(12, 8)
	for i := range x.Data() {
		x.Data()[i] = float64(i%7) - 3
	}
	a, err := c.Compress(x)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := Encode(a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{magicV1})
	f.Add([]byte{})
	f.Add(blockVolOverflowStream())
	f.Add(lowestIndexStream())
	f.Add(payloadBitsOverflowStream())
	// v2 edge cases; the int8 ones take DecodeView's aliasing path.
	i8 := indexStream(magicV2, 5)
	padBit := append([]byte(nil), i8...)
	padBit[len(padBit)-5] |= 1 // the last pad bit, just before the 4-byte F
	f.Add(i8)
	f.Add(padBit)
	f.Add(indexStream(magicV2, math.MinInt8))
	f.Add(append(append([]byte(nil), i8...), 0))
	f.Add(i8[:len(i8)-2])
	f.Add(blob[:len(blob)-1])
	f.Add(indexStream(magicV1, 5)) // a valid v1 stream
	// v3: masked, dense and mixed blocks, an int8 run DecodeView keeps in
	// place and an int16 one it copies, and a masked block under −0.
	f.Add(v3Stream(scalar.Int8, []uint32{0x3f800000}, []int{0b1010}, []int64{5, -3}))
	f.Add(v3Stream(scalar.Int8, []uint32{0x3f800000, 0x40000000}, []int{-1, -1}, []int64{1, 2, 3, 4, 0, 0, 7, 8}))
	f.Add(v3Stream(scalar.Int8, []uint32{0x3f800000, 0x40000000}, []int{-1, 0b0001}, []int64{1, 0, 3, 4, 9}))
	f.Add(v3Stream(scalar.Int16, []uint32{0x3f800000, 0x40000000, 0}, []int{0b1100, -1, 0}, []int64{300, -2, 1, 2, 3, -4}))
	f.Add(v3Stream(scalar.Int8, []uint32{0x80000000}, []int{0b1000}, []int64{1}))
	f.Add(mustEncode(f, a))
	// v4: the int16 array as v3 and as v4, cut inside the codes, a stream
	// of one symbol, and hand-written codes: complete, incomplete, and
	// of an index with eight extra bits.
	for _, choice := range []streamChoice{forceV3, forceV4} {
		s, err := encodeWith(a, choice)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
		f.Add(s[:len(s)-3])
	}
	one := []uint32{0x3f800000, 0x40000000}
	f.Add(v4Stream(scalar.Int16, one, []int{-1, 0b1010}, []uint8{0, 0, 0, 2, 0, 2, 0, 2, 2}, []int64{1, 2, 3, 4, 5, -6}))
	f.Add(v4Stream(scalar.Int16, one, []int{-1, 0b1010}, []uint8{0, 0, 0, 1, 0, 2, 0, 2, 2}, []int64{1, 2, 3, 4, 5, -6}))
	f.Add(v4Stream(scalar.Int32, one, []int{0b0001, -1}, []uint8{1, 1}, []int64{2147483647, 0, 0, 0, 0}))
	f.Add(v4Stream(scalar.Int64, one[:1], []int{0b1000}, []uint8{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, []int64{-300}))

	// Decode and DecodeView must agree on every input: both fail, or both
	// return the same array; and an accepted array encodes into a stream
	// that decodes to it again.

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		view, verr := DecodeView(data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("Decode error %v, DecodeView error %v", err, verr)
		}
		if err != nil {
			return
		}
		if !view.F.Equal(dec.F) || !bytes.Equal(view.occ, dec.occ) || !sameArray(view, dec) {
			t.Fatal("DecodeView and Decode returned different arrays")
		}
		again, err := Decode(mustEncode(t, dec))
		if err != nil {
			t.Fatalf("Decode(Encode(Decode(s))): %v", err)
		}
		// N round trips through its float type; a NaN may come back as
		// another NaN.
		sameN := func(x, y float64) bool { return sameBits(x, y) || math.IsNaN(x) && math.IsNaN(y) }
		if !slices.EqualFunc(again.N, dec.N, sameN) || !slices.Equal(again.indices(), dec.indices()) ||
			!tensor.EqualShape(again.Shape, dec.Shape) || !again.Settings.equal(dec.Settings) {
			t.Fatal("Decode(Encode(Decode(s))) differs from Decode(s)")
		}
		if n, ok := runLength(dec.occ, dec.NumBlocks(), dec.Kept()); dec.NumBlocks() <= 0 || !ok || dec.F.Len() != n {
			t.Fatalf("inconsistent decode: blocks %d, F %d, kept %d, masks mark %d",
				dec.NumBlocks(), dec.F.Len(), dec.Kept(), n)
		}
		// A decodable array must also be decompressible by a compressor
		// built from its own settings.
		cc, err := NewCompressor(dec.Settings)
		if err != nil {
			t.Fatalf("decoded settings not constructible: %v", err)
		}
		if _, err := cc.Decompress(dec); err != nil {
			t.Fatalf("decoded array not decompressible: %v", err)
		}
	})
}

// blockVolOverflowStream crafts a header whose block extents are each
// within the per-extent bound but whose product is 2^63: without an
// overflow guard the volume wraps to a negative int, bypasses the
// Remaining() bounds check, and panics allocating the mask.
func blockVolOverflowStream() []byte {
	var w bits.Writer
	w.WriteBits(magicV1, 8)
	w.WriteBits(0, 2) // transform: dct
	w.WriteBits(uint64(scalar.Float32), 2)
	w.WriteBits(uint64(scalar.Int8), 2)
	for i := 0; i < 4; i++ { // shape 1×1×1×1
		w.WriteBits(1, 64)
	}
	w.WriteBits(shapeEnd, 64)
	for _, e := range []uint64{1 << 20, 1 << 20, 1 << 20, 1 << 3} {
		w.WriteBits(e, 64)
	}
	return w.Bytes()
}

// TestDecodeRejectsBlockVolumeOverflow pins the overflow fix outside the
// fuzz harness so it runs in every plain `go test`.
func TestDecodeRejectsBlockVolumeOverflow(t *testing.T) {
	if _, err := Decode(blockVolOverflowStream()); err == nil {
		t.Fatal("header with 2^63 block volume must be rejected")
	}
}

// payloadBitsOverflowStream crafts a 16 KiB header whose N and F would
// need 2^40·(64 + 2^17·64) ≈ 2^63 bits: each factor passes its own bound,
// and a product taken in int64 wraps negative and passes "have ≥ need".
func payloadBitsOverflowStream() []byte {
	var w bits.Writer
	w.WriteBits(magicV1, 8)
	w.WriteBits(0, 2) // transform: dct
	w.WriteBits(uint64(scalar.Float64), 2)
	w.WriteBits(uint64(scalar.Int64), 2)
	w.WriteBits(1<<40, 64) // shape 2^40 × 1
	w.WriteBits(1, 64)
	w.WriteBits(shapeEnd, 64)
	w.WriteBits(1, 64) // blocks of 1 × 2^17, all kept
	w.WriteBits(1<<17, 64)
	for i := 0; i < 1<<17; i += 64 {
		w.WriteBits(^uint64(0), 64)
	}
	return w.Bytes()
}

// TestDecodeRejectsPayloadBitsOverflow: the header above must be refused
// before Decode sizes an allocation by it.
func TestDecodeRejectsPayloadBitsOverflow(t *testing.T) {
	if _, err := Decode(payloadBitsOverflowStream()); err == nil {
		t.Fatal("header needing 2^63 payload bits must be rejected")
	}
}

// lowestIndexStream crafts an otherwise valid 2×2 int8 stream whose third
// index is the bit pattern 0x80 = −2^(b−1). Binning clamps to [−r, r] and
// never emits it; accepting it let Negate turn it into +2^(b−1), which
// does not fit the index type, so −A kept that element's sign.
func lowestIndexStream() []byte { return indexStream(magicV1, math.MinInt8) }

// indexStream writes a one-block 2×2 float32/int8 stream by hand in the
// version magic names, with the given value as its third index.
func indexStream(magic uint64, third int8) []byte {
	var w bits.Writer
	w.WriteBits(magic, 8)
	w.WriteBits(0, 2) // transform: dct
	w.WriteBits(uint64(scalar.Float32), 2)
	w.WriteBits(uint64(scalar.Int8), 2)
	w.WriteBits(2, 64) // shape 2×2
	w.WriteBits(2, 64)
	w.WriteBits(shapeEnd, 64)
	w.WriteBits(2, 64) // one 2×2 block
	w.WriteBits(2, 64)
	w.WriteBits(0b1111, 4) // keep everything
	w.WriteBits(uint64(math.Float32bits(1)), 32)
	if magic == magicV2 {
		w.WriteBits(0, 6) // pad: 370 bits so far
	}
	for _, idx := range []int8{127, 0, third, 5} {
		w.WriteBits(uint64(idx), 8)
	}
	return w.Bytes()
}

// TestDecodeRejectsLowestIndex pins the range check outside the fuzz
// harness, and that Encode refuses the same value: the only way to hold
// it is to build the array by hand.
func TestDecodeRejectsLowestIndex(t *testing.T) {
	for _, d := range decoders {
		for _, magic := range []uint64{magicV1, magicV2} {
			if _, err := d.decode(indexStream(magic, math.MinInt8)); !errors.Is(err, errIndexRange) {
				t.Fatalf("%s decode of %#x stream holding index −128: %v, want %v", d.name, magic, err, errIndexRange)
			}
			// The same stream with the index in range decodes, so it is
			// the index that was refused and not the crafting.
			a, err := d.decode(indexStream(magic, -127))
			if err != nil {
				t.Fatalf("%s decode of %#x stream holding index −127: %v", d.name, magic, err)
			}
			if got := a.F.At(2); got != -127 {
				t.Fatalf("%s decode of %#x stream: index = %d, want −127", d.name, magic, got)
			}
		}
	}
	for it := scalar.Int8; it <= scalar.Int64; it++ {
		s := DefaultSettings(2, 2)
		s.IndexType = it
		c := mustCompressor(t, s)
		b := compress(t, c, tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
		switch it {
		case scalar.Int8:
			b.F.i8[1] = math.MinInt8
		case scalar.Int16:
			b.F.i16[1] = math.MinInt16
		case scalar.Int32:
			b.F.i32[1] = math.MinInt32
		default:
			b.F.i64[1] = math.MinInt64
		}
		if _, err := Encode(b); !errors.Is(err, errIndexRange) {
			t.Errorf("%v: Encode of index −2^(b−1): %v, want %v", it, err, errIndexRange)
		}
	}
}

// TestDecodeRejectsMalformedV2: a v2 stream is exactly header, N, zero
// pad and F. A set pad bit, a byte after F, or a cut inside F is refused
// by both decoders, on the int8 path DecodeView aliases and on the int16
// path it copies.
func TestDecodeRejectsMalformedV2(t *testing.T) {
	c := mustCompressor(t, DefaultSettings(4, 4))
	wide := encodeV2(t, compress(t, c, smoothTensor(1, 12, 8)))
	for name, good := range map[string][]byte{"int8": indexStream(magicV2, 5), "int16": wide} {
		// The pad sits at the low end of the byte before F; int16 F here
		// is 6 blocks × 16 indices × 2 bytes.
		fBytes := map[string]int{"int8": 4, "int16": 6 * 16 * 2}[name]
		padBit := append([]byte(nil), good...)
		padBit[len(padBit)-fBytes-1] |= 1
		bad := map[string][]byte{
			"pad bit set":   padBit,
			"trailing byte": append(append([]byte(nil), good...), 0),
			"cut inside F":  good[:len(good)-1],
		}
		for _, d := range decoders {
			if _, err := d.decode(good); err != nil {
				t.Fatalf("%s decode of %s: intact stream: %v", d.name, name, err)
			}
			for what, data := range bad {
				if _, err := d.decode(data); err == nil {
					t.Errorf("%s decode of %s: %s accepted", d.name, name, what)
				}
			}
		}
	}
}

// v3Stream writes by hand a float32 v3 stream of shape 4·len(n) in
// blocks of 4 under index type it: n holds each block's N bits, masks
// each block's 4-bit occupancy mask (−1: the block is dense), and runs
// every stored index in order.
func v3Stream(it scalar.IndexType, n []uint32, masks []int, runs []int64) []byte {
	var w bits.Writer
	w.WriteBits(magicV3, 8)
	w.WriteBits(0, 2) // transform: dct
	w.WriteBits(uint64(scalar.Float32), 2)
	w.WriteBits(uint64(it), 2)
	w.WriteBits(uint64(4*len(n)), 64)
	w.WriteBits(shapeEnd, 64)
	w.WriteBits(4, 64)
	w.WriteBits(0b1111, 4) // keep everything
	for _, v := range n {
		w.WriteBits(uint64(v), 32)
	}
	w.WriteBits(0, uint(-w.Len()&7))
	for _, m := range masks {
		w.WriteBool(m >= 0)
	}
	for _, m := range masks {
		if m >= 0 {
			w.WriteBits(uint64(m), 4)
		}
	}
	w.WriteBits(0, uint(-w.Len()&7))
	for _, v := range runs {
		w.WriteBits(uint64(v), uint(it.Bits()))
	}
	return w.Bytes()
}

// TestDecodeRejectsMalformedV3: a masked block under an N that is not
// plain, masks that mark more indices than the stream holds, set pad bits
// after N or after the masks, a trailing byte, and −2^(b−1) in a masked
// run are refused by both decoders, on the int8 path DecodeView aliases
// and on the int16 path it copies; the same streams made well-formed
// decode.
func TestDecodeRejectsMalformedV3(t *testing.T) {
	one := uint32(0x3f800000) // 1.0f
	for _, it := range []scalar.IndexType{scalar.Int8, scalar.Int16} {
		lowest := -int64(it.Radius()) - 1
		// Block 0 dense, block 1 masked with indices at positions 0 and 2.
		stream := func(n1 uint32, m1 int, runs ...int64) []byte {
			return v3Stream(it, []uint32{one, n1}, []int{-1, m1}, append([]int64{1, 2, 3, 4}, runs...))
		}
		good := stream(one, 0b1010, 5, -6)
		padAfterN := append([]byte(nil), good...)
		padAfterN[len(padAfterN)-6*it.Bits()/8-2] |= 1 // the byte before the flags ends in the pad
		padAfterMasks := append([]byte(nil), good...)
		padAfterMasks[len(padAfterMasks)-6*it.Bits()/8-1] |= 1 // flags 01, mask 1010, two pad bits
		bad := map[string][]byte{
			"NaN N":                stream(0x7fc00000, 0b1010, 5, -6),
			"+Inf N":               stream(0x7f800000, 0b1010, 5, -6),
			"−Inf N":               stream(0xff800000, 0b1010, 5, -6),
			"−0 N":                 stream(0x80000000, 0b1010, 5, -6),
			"negative N":           stream(0xbf800000, 0b1010, 5, -6),
			"mask past the stream": stream(one, 0b1110, 5, -6),
			"pad bit after N":      padAfterN,
			"pad bit after masks":  padAfterMasks,
			"trailing byte":        append(append([]byte(nil), good...), 0),
			"lowest index":         stream(one, 0b1010, 5, lowest),
		}
		for _, d := range decoders {
			a, err := d.decode(good)
			if err != nil {
				t.Fatalf("%s decode of %v: intact stream: %v", d.name, it, err)
			}
			if got := a.indices(); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 0, -6, 0}) {
				t.Fatalf("%s decode of %v: indices %v", d.name, it, got)
			}
			for what, data := range bad {
				if _, err := d.decode(data); err == nil {
					t.Errorf("%s decode of %v: %s accepted", d.name, it, what)
				}
			}
		}
	}
}

// TestGoldenStreamFormat pins the serialized byte layout: any change to
// the format breaks this test and must be deliberate (bump it together
// with Decode compatibility reasoning).
func TestGoldenStreamFormat(t *testing.T) {
	s := Settings{
		BlockShape: []int{2, 2},
		FloatType:  scalar.Float32,
		IndexType:  scalar.Int8,
	}
	c, err := NewCompressor(s)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{
		1, 2,
		3, 4,
	}, 2, 2)
	a, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Layout (v3): 8-bit magic 0xB9, 2-bit transform (dct=0), 2-bit float
	// type (float32=2), 2-bit index type (int8=0), two 64-bit extents
	// (2, 2), 64-bit end marker, two 64-bit block extents (2, 2), 4 mask
	// bits (all 1), one float32 N, zero padding to a byte; then the one
	// block's flag (1: masked), its occupancy mask 1110 and three pad bits
	// — the byte f0 — then its three nonzero int8 indices, 7f e7 cd.
	// (Captured from the implementation; the header fields are
	// bit-packed, not byte-aligned, so the hex before the flags is not
	// directly human-readable.)
	const golden = "b9200000000000000008000000000000000bfffffffffffffffc" +
		"0000000000000008000000000000000bd028000000f07fe7cd"
	got := hex.EncodeToString(blob)
	if got != golden {
		t.Errorf("stream format changed:\n got  %s\n want %s", got, golden)
	}
	// The v2 layout of the same array, which Decode still reads: the pad
	// moved before F, and all four indices, 7f e7 cd 00.
	const goldenV2 = "b8200000000000000008000000000000000bfffffffffffffffc" +
		"0000000000000008000000000000000bd0280000007fe7cd00"
	if got := hex.EncodeToString(encodeV2(t, a)); got != goldenV2 {
		t.Errorf("v2 layout changed:\n got  %s\n want %s", got, goldenV2)
	}
	// And both golden streams must decode to the same array.
	for _, g := range []string{golden, goldenV2} {
		gb, err := hex.DecodeString(g)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustEncode(t, back), blob) {
			t.Errorf("golden stream %.2s… did not round trip", g)
		}
	}
}

func mustEncode(t testing.TB, a *CompressedArray) []byte {
	t.Helper()
	b, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
