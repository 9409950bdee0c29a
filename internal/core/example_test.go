package core_test

import (
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

// goldenArray compresses the 2×4 array [[1, 2, 7, 7], [3, 5, 7, 7]] in
// two 2×2 float32, int8 blocks — the array every golden stream holds. The
// first block's four bin indices are all nonzero; the second, a constant,
// has only its first.
func goldenArray() *core.CompressedArray {
	c, err := core.NewCompressor(core.Settings{
		BlockShape: []int{2, 2},
		FloatType:  scalar.Float32,
		IndexType:  scalar.Int8,
	})
	if err != nil {
		panic(err)
	}
	a, err := c.Compress(tensor.FromSlice([]float64{1, 2, 7, 7, 3, 5, 7, 7}, 2, 4))
	if err != nil {
		panic(err)
	}
	return a
}

// Encode writes stream v3: magic 0xB9, then the header and N bit-packed,
// then zero bits to a byte boundary, then the flags and masks — here the
// byte 60: block 0 dense (0), block 1 masked (1), its mask 1000 and three
// pad bits — then the index runs: the dense block's four, 7f dd c6 0c,
// and the masked block's one nonzero index, 7f.
func ExampleEncode() {
	blob, err := core.Encode(goldenArray())
	if err != nil {
		panic(err)
	}
	fmt.Println(hex.EncodeToString(blob))
	// Output:
	// b92000000000000000080000000000000013fffffffffffffffc0000000000000008000000000000000bd02c00001058000000607fddc60c7f
}

// Decode still reads stream v1 (magic 0xB7, F straight after N and the
// pad at the end) and v2 (0xB8, the pad before F), which stores written
// before v3 hold; both keep every index, zeros included. The v1 and the
// v2 stream of the golden array decode to the array whose v3 encoding is
// Encode's golden, two bytes shorter.
func ExampleDecode() {
	for _, stream := range []string{
		"b72000000000000000080000000000000013fffffffffffffffc" +
			"0000000000000008000000000000000bd02c0000105800001ff771831fc0000000",
		"b82000000000000000080000000000000013fffffffffffffffc" +
			"0000000000000008000000000000000bd02c000010580000007fddc60c7f000000",
	} {
		old, err := hex.DecodeString(stream)
		if err != nil {
			panic(err)
		}
		a, err := core.Decode(old)
		if err != nil {
			panic(err)
		}
		v3, err := core.Encode(a)
		if err != nil {
			panic(err)
		}
		fmt.Println(len(old), len(v3), hex.EncodeToString(v3))
	}
	// Output:
	// 59 57 b92000000000000000080000000000000013fffffffffffffffc0000000000000008000000000000000bd02c00001058000000607fddc60c7f
	// 59 57 b92000000000000000080000000000000013fffffffffffffffc0000000000000008000000000000000bd02c00001058000000607fddc60c7f
}

// Encode writes stream v4 (magic 0xBA) where that is shorter than v3, for
// int16 and wider indices only. Here sixteen values near 100 form one
// float32 int16 block. Everything up to the block's flag byte, 00 (it is
// dense), is v3's; then comes the code: 09, nine symbols, of lengths
// 4 4 0 3 3 3 2 3 3 — 0, +r and −r, then ±1, ±2–3 and ±4–7, each sign its
// own symbol — then the sixteen indices as their codes and their extra
// bits, and a pad. The v3 stream, with sixteen 2-byte indices, is 65
// bytes.
func ExampleEncode_v4() {
	c, err := core.NewCompressor(core.Settings{
		BlockShape: []int{16},
		FloatType:  scalar.Float32,
		IndexType:  scalar.Int16,
	})
	if err != nil {
		panic(err)
	}
	x := tensor.New(16)
	for i := range x.Data() {
		x.Data()[i] = 100 + 0.01*float64(i%3) + 0.02*float64(i%5)
	}
	a, err := c.Compress(x)
	if err != nil {
		panic(err)
	}
	blob, err := core.Encode(a)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(blob), hex.EncodeToString(blob))
	// Output:
	// 46 ba240000000000000043fffffffffffffffc0000000000000043fffd0f2060000009440333233f6003aab45188e0
}
