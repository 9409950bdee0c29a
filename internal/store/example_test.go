package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/store"
)

// ExampleWriter_footer pins the byte layout a version-2 store ends in.
// Two frames with stand-in payloads: label 3 under the default spec
// (the header's), label −1 under a second spec. The footer is the spec
// table — a u16 count, then a u16 length and the bytes of each extra
// spec — and one 30-byte entry per frame: label, payload offset and
// payload length (64-bit), payload CRC32 and a u16 spec id (0 is the
// header's spec). The 24-byte trailer is the footer offset, the frame
// count, the footer CRC32 and "GBZE". Every integer is big-endian.
func ExampleWriter_footer() {
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, "zfp:rate=16")
	if err != nil {
		panic(err)
	}
	if err := w.WriteFrameWithSpec(3, []byte("abc"), ""); err != nil {
		panic(err)
	}
	if err := w.WriteFrameWithSpec(-1, []byte("de"), "zfp:rate=8"); err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	trailer := b[len(b)-24:]
	footer := b[binary.BigEndian.Uint64(trailer) : len(b)-24]
	fmt.Printf("footer  %x\ntrailer %x\n", footer, trailer)
	// Output:
	// footer  0001000a7a66703a726174653d38000000000000000300000000000000120000000000000003352441c20000ffffffffffffffff000000000000001500000000000000027d90298b0001
	// trailer 000000000000001700000000000000021c4c8e5d47425a45
}
