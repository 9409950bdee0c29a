package core_test

import (
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

// goldenArray compresses the 2×2 array [[1, 2], [3, 4]] in one float32,
// int8 block — the array both golden streams hold.
func goldenArray() *core.CompressedArray {
	c, err := core.NewCompressor(core.Settings{
		BlockShape: []int{2, 2},
		FloatType:  scalar.Float32,
		IndexType:  scalar.Int8,
	})
	if err != nil {
		panic(err)
	}
	a, err := c.Compress(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	if err != nil {
		panic(err)
	}
	return a
}

// Encode writes stream v2: magic 0xB8, then the header and N bit-packed,
// then zero bits to a byte boundary, then F — here the int8 indices
// 7f e7 cd 00 that end the stream.
func ExampleEncode() {
	blob, err := core.Encode(goldenArray())
	if err != nil {
		panic(err)
	}
	fmt.Println(hex.EncodeToString(blob))
	// Output:
	// b8200000000000000008000000000000000bfffffffffffffffc0000000000000008000000000000000bd0280000007fe7cd00
}

// Decode still reads stream v1 (magic 0xB7, F straight after N and the
// pad at the end), which stores written before v2 hold. The v1 stream of
// the golden array decodes to the array whose v2 encoding is Encode's
// golden, and the two streams are the same length.
func ExampleDecode() {
	v1, err := hex.DecodeString("b7200000000000000008000000000000000bfffffffffffffffc" +
		"0000000000000008000000000000000bd02800001ff9f34000")
	if err != nil {
		panic(err)
	}
	a, err := core.Decode(v1)
	if err != nil {
		panic(err)
	}
	v2, err := core.Encode(a)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(v1), len(v2))
	fmt.Println(hex.EncodeToString(v2))
	// Output:
	// 51 51
	// b8200000000000000008000000000000000bfffffffffffffffc0000000000000008000000000000000bd0280000007fe7cd00
}
