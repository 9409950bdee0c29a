package bits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0b11, 2)
	if w.Len() != 14 {
		t.Fatalf("Len = %d, want 14", w.Len())
	}
	r := NewReader(w.Bytes())
	for _, c := range []struct {
		n    uint
		want uint64
	}{{3, 0b101}, {8, 0xFF}, {1, 0}, {2, 0b11}} {
		got, err := r.ReadBits(c.n)
		if err != nil || got != c.want {
			t.Fatalf("ReadBits(%d) = %d, %v; want %d", c.n, got, err, c.want)
		}
	}
}

func TestWriteBool(t *testing.T) {
	var w Writer
	w.WriteBool(true)
	w.WriteBool(false)
	w.WriteBool(true)
	r := NewReader(w.Bytes())
	for i, want := range []bool{true, false, true} {
		got, err := r.ReadBool()
		if err != nil || got != want {
			t.Fatalf("bit %d = %v, %v", i, got, err)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("want ErrOutOfBits, got %v", err)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestWriterReuseAfterBytes(t *testing.T) {
	var w Writer
	w.WriteBits(0b1, 1)
	b1 := w.Bytes()
	w.WriteBits(0b1111111, 7)
	b2 := w.Bytes()
	if len(b1) != 1 || b1[0] != 0x80 {
		t.Fatalf("b1 = %v", b1)
	}
	if len(b2) != 1 || b2[0] != 0xFF {
		t.Fatalf("b2 = %v", b2)
	}
}

func TestWriteBitsPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteBits(65) should panic")
		}
	}()
	var w Writer
	w.WriteBits(0, 65)
}

// signExtend interprets the low n bits of v as an n-bit two's-complement
// integer and widens it to int64: the per-value oracle of UnpackSigned.
func signExtend(v uint64, n uint) int64 {
	if n == 0 {
		return 0
	}
	if n >= 64 {
		return int64(v)
	}
	shift := 64 - n
	return int64(v<<shift) >> shift
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		n    uint
		want int64
	}{
		{0b0111, 4, 7},
		{0b1000, 4, -8},
		{0b1111, 4, -1},
		{0xFF, 8, -1},
		{0x7F, 8, 127},
		{0, 0, 0},
		{0xFFFFFFFFFFFFFFFF, 64, -1},
	}
	for _, c := range cases {
		if got := signExtend(c.v, c.n); got != c.want {
			t.Errorf("signExtend(%#x, %d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}

func TestRoundTripRandomBits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var w Writer
		type rec struct {
			v uint64
			n uint
		}
		var recs []rec
		for i := 0; i < 50; i++ {
			n := uint(rng.Intn(64) + 1)
			v := rng.Uint64() & (^uint64(0) >> (64 - n))
			recs = append(recs, rec{v, n})
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for _, rc := range recs {
			got, err := r.ReadBits(rc.n)
			if err != nil || got != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 2, -2, 127, -128, 1 << 20, -(1 << 20), 1<<62 - 1} {
		if got := FromNegabinary(ToNegabinary(x)); got != x {
			t.Errorf("negabinary round trip %d → %d", x, got)
		}
	}
}

func TestNegabinarySmallMagnitudeSmallBits(t *testing.T) {
	// Negabinary of 0 is 0; small magnitudes use few significant bits.
	if ToNegabinary(0) != 0 {
		t.Errorf("ToNegabinary(0) = %d", ToNegabinary(0))
	}
	if ToNegabinary(1) != 1 {
		t.Errorf("ToNegabinary(1) = %d", ToNegabinary(1))
	}
	// -1 in negabinary is 11 (= -2+1... base -2: 1·(-2)+1·1 = -1).
	if ToNegabinary(-1) != 0b11 {
		t.Errorf("ToNegabinary(-1) = %b", ToNegabinary(-1))
	}
}

func TestNegabinaryProperty(t *testing.T) {
	f := func(x int64) bool {
		x >>= 2 // keep away from the extremes where +mask overflows meaningfully
		return FromNegabinary(ToNegabinary(x)) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	freqs := []int{50, 30, 10, 5, 5, 0, 1}
	hc, err := BuildHuffman(freqs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var syms []int
	var w Writer
	for i := 0; i < 500; i++ {
		s := rng.Intn(len(freqs))
		if freqs[s] == 0 {
			s = 0
		}
		syms = append(syms, s)
		if err := hc.Encode(&w, s); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes())
	for i, want := range syms {
		got, err := hc.Decode(r)
		if err != nil || got != want {
			t.Fatalf("symbol %d: got %d, %v; want %d", i, got, err, want)
		}
	}
}

func TestHuffmanOptimality(t *testing.T) {
	// More frequent symbols must not get longer codes.
	freqs := []int{100, 50, 20, 5, 1}
	hc, err := BuildHuffman(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(freqs); i++ {
		if hc.Lengths[i-1] > hc.Lengths[i] {
			t.Errorf("symbol %d (freq %d) has longer code than symbol %d (freq %d): %d > %d",
				i-1, freqs[i-1], i, freqs[i], hc.Lengths[i-1], hc.Lengths[i])
		}
	}
}

func TestHuffmanKraftEquality(t *testing.T) {
	// A full binary Huffman tree satisfies Kraft equality Σ 2^-l = 1.
	freqs := []int{7, 7, 6, 5, 3, 2, 1, 1, 1}
	hc, err := BuildHuffman(freqs)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range hc.Lengths {
		if l > 0 {
			sum += 1 / float64(uint64(1)<<l)
		}
	}
	if sum != 1.0 {
		t.Errorf("Kraft sum = %g, want 1", sum)
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	hc, err := BuildHuffman([]int{0, 42, 0})
	if err != nil {
		t.Fatal(err)
	}
	var w Writer
	for i := 0; i < 5; i++ {
		if err := hc.Encode(&w, 1); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes())
	for i := 0; i < 5; i++ {
		got, err := hc.Decode(r)
		if err != nil || got != 1 {
			t.Fatalf("single-symbol decode: %d, %v", got, err)
		}
	}
}

func TestHuffmanErrors(t *testing.T) {
	if _, err := BuildHuffman([]int{0, 0}); err == nil {
		t.Error("all-zero frequencies should fail")
	}
	hc, _ := BuildHuffman([]int{1, 1})
	var w Writer
	if err := hc.Encode(&w, 5); err == nil {
		t.Error("encoding unknown symbol should fail")
	}
	if err := hc.Encode(&w, -1); err == nil {
		t.Error("encoding negative symbol should fail")
	}
}

func TestHuffmanFromLengths(t *testing.T) {
	freqs := []int{40, 30, 20, 10}
	hc, err := BuildHuffman(freqs)
	if err != nil {
		t.Fatal(err)
	}
	hc2, err := NewHuffmanFromLengths(hc.Lengths)
	if err != nil {
		t.Fatal(err)
	}
	// Codes must agree: encode with one, decode with the other.
	var w Writer
	seq := []int{0, 1, 2, 3, 2, 1, 0}
	for _, s := range seq {
		if err := hc.Encode(&w, s); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes())
	for i, want := range seq {
		got, err := hc2.Decode(r)
		if err != nil || got != want {
			t.Fatalf("cross decode %d: %d, %v", i, got, err)
		}
	}
	if _, err := NewHuffmanFromLengths([]uint8{0, 0}); err == nil {
		t.Error("empty lengths should fail")
	}
}

func TestHuffmanRandomRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		freqs := make([]int, n)
		for i := range freqs {
			freqs[i] = rng.Intn(100)
		}
		freqs[rng.Intn(n)] = 1 + rng.Intn(100) // ensure at least one positive
		hc, err := BuildHuffman(freqs)
		if err != nil {
			return false
		}
		var w Writer
		var syms []int
		for i := 0; i < 100; i++ {
			s := rng.Intn(n)
			if freqs[s] == 0 {
				continue
			}
			syms = append(syms, s)
			if hc.Encode(&w, s) != nil {
				return false
			}
		}
		r := NewReader(w.Bytes())
		for _, want := range syms {
			got, err := hc.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAppendBits(t *testing.T) {
	// Byte-aligned fast path.
	var w Writer
	w.AppendBits([]byte{0xAB, 0xCD}, 16)
	got := w.Bytes()
	if len(got) != 2 || got[0] != 0xAB || got[1] != 0xCD {
		t.Fatalf("aligned append = %x", got)
	}
	// Unaligned: 3 bits then 13 bits from a buffer.
	var w2 Writer
	w2.WriteBits(0b101, 3)
	w2.AppendBits([]byte{0xFF, 0xE0}, 13) // 1111111111100 (13 bits)
	r := NewReader(w2.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("prefix = %b", v)
	}
	v, _ := r.ReadBits(13)
	if v != 0b1111111111100 {
		t.Fatalf("appended = %b", v)
	}
	// Panic on overflow.
	defer func() {
		if recover() == nil {
			t.Error("AppendBits over buffer length should panic")
		}
	}()
	w2.AppendBits([]byte{0x00}, 9)
}

func TestAppendBitsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a reference stream with WriteBits and the same stream by
		// appending pre-rendered chunks; the bytes must agree.
		var ref, app Writer
		app.WriteBits(uint64(rng.Intn(2)), uint(rng.Intn(7)+1)) // misalign
		refPrefixBits := app.Len()
		prefix := app.Bytes()
		_ = prefix
		for i := 0; i < 5; i++ {
			n := rng.Intn(40) + 1
			v := rng.Uint64() & (^uint64(0) >> (64 - uint(n)))
			ref.WriteBits(v, uint(n))
			var chunk Writer
			chunk.WriteBits(v, uint(n))
			app.AppendBits(chunk.Bytes(), n)
		}
		// Compare only the written payload bits (the final byte's zero
		// padding may legitimately differ between the two streams).
		payloadBits := ref.Len()
		ra := NewReader(app.Bytes())
		ra.ReadBits(uint(refPrefixBits))
		rr := NewReader(ref.Bytes())
		for i := 0; i < payloadBits; i++ {
			want, err1 := rr.ReadBit()
			got, err2 := ra.ReadBit()
			if err1 != nil || err2 != nil || want != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The bit-at-a-time reader and writer this package shipped before the
// word-at-a-time rewrite, kept verbatim as the oracle: one bit per call,
// one append per byte. Everything below checks the fast paths against it.

type modelWriter struct {
	buf  []byte
	cur  byte
	nCur uint
}

func (w *modelWriter) WriteBit(b uint8) {
	w.cur = w.cur<<1 | (b & 1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *modelWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint8(v>>uint(i)) & 1)
	}
}

func (w *modelWriter) Len() int { return len(w.buf)*8 + int(w.nCur) }

func (w *modelWriter) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

type modelReader struct {
	buf []byte
	pos int
}

func (r *modelReader) ReadBit() (uint8, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrOutOfBits
	}
	b := r.buf[r.pos/8] >> (7 - uint(r.pos%8)) & 1
	r.pos++
	return b, nil
}

func (r *modelReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *modelReader) Remaining() int { return len(r.buf)*8 - r.pos }

// checkAgainstModel replays ops — a start offset 0–7 followed by
// (width 0–64, value) pairs — through both writers, requires identical
// bytes, then reads the stream back through both readers, one width past
// the end included.
func checkAgainstModel(t *testing.T, offset uint, widths []uint, values []uint64) {
	t.Helper()
	var w Writer
	var m modelWriter
	w.WriteBits(0b1010101, offset)
	m.WriteBits(0b1010101, offset)
	for i, n := range widths {
		w.WriteBits(values[i], n)
		m.WriteBits(values[i], n)
		if w.Len() != m.Len() {
			t.Fatalf("offset %d write %d: Len = %d, model %d", offset, i, w.Len(), m.Len())
		}
	}
	got, want := w.Bytes(), m.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("offset %d widths %v: bytes\n got %x\nwant %x", offset, widths, got, want)
	}
	r, mr := NewReader(got), &modelReader{buf: want}
	r.ReadBits(offset)
	mr.ReadBits(offset)
	for i, n := range append(widths, 64, 64) {
		v, err := r.ReadBits(n)
		mv, merr := mr.ReadBits(n)
		if v != mv || err != merr || r.Remaining() != mr.Remaining() {
			t.Fatalf("offset %d read %d (n=%d): got %#x, %v, remaining %d; model %#x, %v, remaining %d",
				offset, i, n, v, err, r.Remaining(), mv, merr, mr.Remaining())
		}
	}
}

func TestBitsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		count := rng.Intn(40)
		widths := make([]uint, count)
		values := make([]uint64, count)
		for i := range widths {
			widths[i] = uint(rng.Intn(65))
			values[i] = rng.Uint64() // high bits beyond the width must be ignored
		}
		checkAgainstModel(t, uint(trial%8), widths, values)
	}
}

// TestReadBitsEdges pins the reader's three paths on a fixed buffer: the
// plain 8-byte load, the 9-byte span of a 64-bit read at an odd offset,
// and reads that start inside or end exactly at the last eight bytes.
func TestReadBitsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{1, 7, 8, 9, 15, 16, 17, 24} {
		buf := make([]byte, size)
		rng.Read(buf)
		total := size * 8
		for start := 0; start < total; start++ {
			for _, n := range []uint{0, 1, 7, 8, 9, 31, 32, 33, 56, 57, 63, 64} {
				r, m := NewReader(buf), &modelReader{buf: buf}
				r.pos, m.pos = start, start
				v, err := r.ReadBits(n)
				mv, merr := m.ReadBits(n)
				if v != mv || err != merr || r.Remaining() != m.Remaining() {
					t.Fatalf("size %d start %d n %d: got %#x, %v, remaining %d; model %#x, %v, remaining %d",
						size, start, n, v, err, r.Remaining(), mv, merr, m.Remaining())
				}
			}
		}
	}
}

// TestReadBitsNeverOverReads gives the reader a slice whose backing array
// continues with poison: a bounded view of a larger image, as the store's
// mmap payloads are. Bytes beyond len must never reach a result.
func TestReadBitsNeverOverReads(t *testing.T) {
	backing := bytes.Repeat([]byte{0xFF}, 32)
	for size := 1; size <= 16; size++ {
		for i := range backing[:size] {
			backing[i] = 0
		}
		view := backing[:size:size]
		for start := 0; start < size*8; start++ {
			r := NewReader(view)
			r.pos = start
			n := uint(size*8 - start)
			if n > 64 {
				n = 64
			}
			if v, err := r.ReadBits(n); v != 0 || err != nil {
				t.Fatalf("size %d start %d n %d: read %#x, %v from an all-zero view", size, start, n, v, err)
			}
		}
	}
}

func TestReadBitsAfterRunningOut(t *testing.T) {
	r := NewReader([]byte{0xAB, 0xCD})
	if _, err := r.ReadBits(12); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadBits(5); err != ErrOutOfBits || v != 0 {
		t.Fatalf("over-long read = %#x, %v; want 0, ErrOutOfBits", v, err)
	}
	// As with the bit-at-a-time reader, the failed read consumed the tail.
	if r.Remaining() != 0 {
		t.Fatalf("Remaining after failed read = %d, want 0", r.Remaining())
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("ReadBit after the end: %v", err)
	}
	if v, err := r.ReadBits(0); v != 0 || err != nil {
		t.Fatalf("ReadBits(0) at the end = %d, %v", v, err)
	}
}

func TestReadBitsPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ReadBits(65) should panic")
		}
	}()
	NewReader(make([]byte, 16)).ReadBits(65)
}

// unpackAgainstReadBits checks UnpackSigned into T against one
// ReadBits+signExtend per value, at every start offset, over lengths that
// end inside and outside the last eight bytes.
func unpackAgainstReadBits[T Signed](t *testing.T, n uint) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	for offset := uint(0); offset < 8; offset++ {
		for _, count := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 200} {
			var w Writer
			w.WriteBits(0, offset)
			wantMin := false
			for i := 0; i < count; i++ {
				v := rng.Uint64()
				if rng.Intn(50) == 0 {
					v = 1 << (n - 1) // the asymmetric minimum
				}
				wantMin = wantMin || v&(^uint64(0)>>(64-n)) == 1<<(n-1)
				w.WriteBits(v, n)
			}
			w.WriteBits(0b101, 3) // the stream does not end at the last value
			buf := w.Bytes()

			ref := NewReader(buf)
			ref.ReadBits(offset)
			want := make([]T, count)
			for i := range want {
				v, err := ref.ReadBits(n)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = T(signExtend(v, n))
			}

			r := NewReader(buf)
			r.ReadBits(offset)
			got := make([]T, count)
			sawMin, err := UnpackSigned(r, got, n)
			if err != nil {
				t.Fatalf("n %d offset %d count %d: %v", n, offset, count, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n %d offset %d count %d: value %d = %d, want %d", n, offset, count, i, got[i], want[i])
				}
			}
			if sawMin != wantMin {
				t.Fatalf("n %d offset %d count %d: sawMin = %v, want %v", n, offset, count, sawMin, wantMin)
			}
			if r.Remaining() != ref.Remaining() {
				t.Fatalf("n %d offset %d count %d: Remaining = %d, want %d", n, offset, count, r.Remaining(), ref.Remaining())
			}
			if tail, _ := r.ReadBits(3); tail != 0b101 {
				t.Fatalf("n %d offset %d count %d: bits after the unpack = %b", n, offset, count, tail)
			}
		}
	}
}

func TestUnpackSigned(t *testing.T) {
	unpackAgainstReadBits[int8](t, 8)
	unpackAgainstReadBits[int16](t, 16)
	unpackAgainstReadBits[int32](t, 32)
	unpackAgainstReadBits[int64](t, 64)
	// Widths narrower than the destination sign-extend into it.
	unpackAgainstReadBits[int8](t, 5)
	unpackAgainstReadBits[int16](t, 12)
	unpackAgainstReadBits[int64](t, 33)
}

func TestUnpackSignedOutOfBits(t *testing.T) {
	r := NewReader(make([]byte, 10))
	r.ReadBits(3)
	dst := make([]int16, 5) // 80 bits wanted, 77 left
	if _, err := UnpackSigned(r, dst, 16); err != ErrOutOfBits {
		t.Fatalf("short stream: %v, want ErrOutOfBits", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining after failed unpack = %d, want 0", r.Remaining())
	}
}

func TestUnpackSignedPanicsWhenTooWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UnpackSigned of 9-bit values into int8 should panic")
		}
	}()
	UnpackSigned(NewReader(make([]byte, 16)), make([]int8, 2), 9)
}

func TestGrowWritesInPlace(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.Grow(8 * 100)
	before := cap(w.buf)
	for i := 0; i < 100; i++ {
		w.WriteBits(uint64(i), 8)
	}
	if got := w.Bytes(); len(got) != 101 || cap(got) != before {
		t.Fatalf("after Grow(800): len %d cap %d, reserved %d", len(got), cap(got), before)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var w Writer
		w.Grow(64 * 1000)
		for i := 0; i < 1000; i++ {
			w.WriteBits(uint64(i), 64)
		}
		sinkBytes = w.Bytes()
	})
	if allocs != 1 {
		t.Fatalf("pre-sized writer allocated %v objects, want 1", allocs)
	}
}

// FuzzBitsRoundTrip drives both writers and both readers from one fuzz
// input: byte 0 is the start offset, then (width, 8 value bytes) records.
func FuzzBitsRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 64, 1, 2, 3, 4, 5, 6, 7, 8, 64, 0xFF, 0xFE, 0xFD, 0xFC, 0xFB, 0xFA, 0xF9, 0xF8})
	f.Add([]byte{7, 1, 0, 0, 0, 0, 0, 0, 0, 1, 63, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		offset := uint(data[0] % 8)
		data = data[1:]
		var widths []uint
		var values []uint64
		for ; len(data) >= 9; data = data[9:] {
			widths = append(widths, uint(data[0]%65))
			var v uint64
			for _, b := range data[1:9] {
				v = v<<8 | uint64(b)
			}
			values = append(values, v)
		}
		checkAgainstModel(t, offset, widths, values)
	})
}

var (
	sinkBytes []byte
	sinkWord  uint64
)

// benchValues is the shape of the analytics frame's F: 65536 8-bit values
// starting 6 bits into a byte.
const benchValues = 65536

func benchStream() []byte {
	rng := rand.New(rand.NewSource(7))
	var w Writer
	w.WriteBits(0, 6)
	for i := 0; i < benchValues; i++ {
		w.WriteBits(uint64(rng.Intn(255)-127), 8)
	}
	return w.Bytes()
}

func BenchmarkReadBits(b *testing.B) {
	buf := benchStream()
	b.SetBytes(benchValues)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		r.ReadBits(6)
		var acc uint64
		for j := 0; j < benchValues; j++ {
			v, _ := r.ReadBits(8)
			acc += v
		}
		sinkWord = acc
	}
}

func BenchmarkUnpackSigned(b *testing.B) {
	buf := benchStream()
	dst := make([]int8, benchValues)
	b.SetBytes(benchValues)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		r.ReadBits(6)
		if _, err := UnpackSigned(r, dst, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBits(b *testing.B) {
	b.SetBytes(benchValues)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w Writer
		w.Grow(6 + 8*benchValues)
		w.WriteBits(0, 6)
		for j := 0; j < benchValues; j++ {
			w.WriteBits(uint64(j), 8)
		}
		sinkBytes = w.Bytes()
	}
}
