package ingest

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
)

// Example_walRecord pins one WAL record's bytes: body length 16, the
// body's CRC32 (75e6b503, as zlib's crc32 also computes it), label −2,
// a 3-byte spec and a 3-byte payload.
func Example_walRecord() {
	rec := walRecord{label: -2, spec: "zfp", payload: []byte{0xb8, 0x01, 0xff}}
	b := appendWALRecord(nil, rec)
	fmt.Println(hex.EncodeToString(b))
	got, n, err := parseWALRecord(b)
	fmt.Println(n == len(b), err, got.label, got.spec, hex.EncodeToString(got.payload))
	// Output:
	// 0000001075e6b503fffffffffffffffe00037a6670b801ff
	// true <nil> -2 zfp b801ff
}

// FuzzWALRecord holds the WAL record parser to its contract on arbitrary
// bytes: it never panics, never claims more bytes than it was given, and
// every record it accepts is exactly what appendWALRecord writes for it,
// so replay can never read a record the writer could not have written.
func FuzzWALRecord(f *testing.F) {
	one := appendWALRecord(nil, walRecord{label: 7, spec: "goblaz:block=4x4", payload: []byte{1, 2, 3}})
	f.Add(one)
	f.Add(appendWALRecord(one, walRecord{label: -1}))
	f.Add(one[:len(one)-1])
	f.Add(append([]byte(nil), one[:walHeaderSize]...))
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := parseWALRecord(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("rejected record consumed %d bytes", n)
			}
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if n != rec.encodedLen() {
			t.Fatalf("consumed %d bytes, encodedLen %d", n, rec.encodedLen())
		}
		if again := appendWALRecord(nil, rec); !bytes.Equal(again, b[:n]) {
			t.Fatalf("re-encoded record\n%x\ndiffers from the accepted bytes\n%x", again, b[:n])
		}
	})
}
