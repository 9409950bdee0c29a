package zfpsim

import "testing"

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, shape := range [][]int{{64}, {16, 24}, {8, 8, 12}} {
		x := gradientTensor(shape...)
		a, err := Compress(x, Settings{BitsPerValue: 16})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		y1, err := Decompress(a)
		if err != nil {
			t.Fatal(err)
		}
		y2, err := Decompress(back)
		if err != nil {
			t.Fatal(err)
		}
		if y1.MaxAbsDiff(y2) != 0 {
			t.Errorf("shape %v: round trip changed decompression", shape)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	x := gradientTensor(16, 16)
	a, _ := Compress(x, Settings{BitsPerValue: 8})
	blob, _ := Encode(a)

	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Decode(blob[:8]); err == nil {
		t.Error("truncated header should fail")
	}
	if _, err := Decode(blob[:len(blob)-3]); err == nil {
		t.Error("truncated payload should fail")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty should fail")
	}
	// Corrupt bits-per-value.
	bad2 := append([]byte(nil), blob...)
	bad2[2] = 0
	if _, err := Decode(bad2); err == nil {
		t.Error("zero bpv should fail")
	}
	// Corrupt dimensionality.
	bad3 := append([]byte(nil), blob...)
	bad3[3] = 7
	if _, err := Decode(bad3); err == nil {
		t.Error("bad dims should fail")
	}
}

func TestEncodeValidates(t *testing.T) {
	if _, err := Encode(&Compressed{Shape: []int{1, 2, 3, 4}}); err == nil {
		t.Error("4-D should fail")
	}
}

// Compress refuses a rate whose block budget is smaller than the 22-bit
// header plus one payload bit; Decode must too. This 1-D rate-5 stream
// (two 20-bit blocks) used to decode, and readBlock then read 22 bits of
// a 20-bit block and parsed every following block from the wrong offset.
func TestDecodeRejectsRateBelowHeader(t *testing.T) {
	stream := []byte{0x50, 0x2F, 0x05, 0x01, 0x08, 0x00, 0x00, 0x00, 0xC0, 0x0F, 0xFF, 0xFF, 0xFF}
	if a, err := Decode(stream); err == nil {
		t.Errorf("Decode accepted rate %d for a 4-value block (budget %d bits < header %d+1)",
			a.Settings.BitsPerValue, a.Settings.blockBudgetBits(4), headerBits)
	}
	// The same shape at the lowest rate Compress accepts still decodes.
	a, err := Compress(gradientTensor(8), Settings{BitsPerValue: 6})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob); err != nil {
		t.Errorf("rate 6 should decode: %v", err)
	}
	// A hand-built array cannot smuggle the rate past Decompress either.
	if _, err := Decompress(&Compressed{Shape: []int{8}, Settings: Settings{BitsPerValue: 5}, Payload: stream[8:]}); err == nil {
		t.Error("Decompress accepted a rate below the header size")
	}
}
