package zfpsim

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Byte container for the fixed-rate stream: magic, bits-per-value,
// dimensionality, extents, then the payload.

const zfpMagic = 0x2F50

// Encode serializes a to bytes.
func Encode(a *Compressed) ([]byte, error) {
	d := len(a.Shape)
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("zfpsim: bad shape %v", a.Shape)
	}
	out := make([]byte, 0, 2+1+1+4*d+len(a.Payload))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], zfpMagic)
	out = append(out, u16[:]...)
	out = append(out, byte(a.Settings.BitsPerValue), byte(d))
	var u32 [4]byte
	for _, e := range a.Shape {
		binary.LittleEndian.PutUint32(u32[:], uint32(e))
		out = append(out, u32[:]...)
	}
	return append(out, a.Payload...), nil
}

// Decode parses bytes produced by Encode, validating the payload length
// against the fixed rate. The result owns its payload.
func Decode(data []byte) (*Compressed, error) { return decode(data, false) }

// DecodeView is Decode whose Payload is data's own bytes, capacity-limited
// so an append cannot write past them. data must outlive the result and
// must not be written while it is in use.
func DecodeView(data []byte) (*Compressed, error) { return decode(data, true) }

func decode(data []byte, view bool) (*Compressed, error) {
	if len(data) < 4 {
		return nil, errors.New("zfpsim: stream too short")
	}
	if binary.LittleEndian.Uint16(data) != zfpMagic {
		return nil, errors.New("zfpsim: bad magic")
	}
	bpv := int(data[2])
	d := int(data[3])
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("zfpsim: bad header (bpv %d, dims %d)", bpv, d)
	}
	pos := 4
	if len(data) < pos+4*d {
		return nil, errors.New("zfpsim: truncated header")
	}
	shape := make([]int, d)
	numBlocks := 1
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if shape[i] <= 0 || shape[i] > 1<<24 {
			return nil, fmt.Errorf("zfpsim: implausible extent %d", shape[i])
		}
		numBlocks *= (shape[i] + BlockSide - 1) / BlockSide
	}
	blockVol := 1
	for i := 0; i < d; i++ {
		blockVol *= BlockSide
	}
	// A rate Compress refuses never comes from Encode; accepting it here
	// would hand readBlock a budget smaller than its own header.
	settings := Settings{BitsPerValue: bpv}
	if err := settings.checkRate(blockVol); err != nil {
		return nil, err
	}
	wantBits := numBlocks * bpv * blockVol
	wantBytes := (wantBits + 7) / 8
	if len(data)-pos != wantBytes {
		return nil, fmt.Errorf("zfpsim: payload %d bytes, want %d", len(data)-pos, wantBytes)
	}
	payload := data[pos:len(data):len(data)]
	if !view {
		payload = append([]byte(nil), payload...)
	}
	return &Compressed{Shape: shape, Settings: settings, Payload: payload}, nil
}
