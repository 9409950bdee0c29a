package szsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Byte container for the SZ-like stream: magic, error bound,
// dimensionality, extents, then the Huffman-coded stream.

const szMagic = 0x5A53

// Encode serializes a to bytes.
func Encode(a *Compressed) ([]byte, error) {
	d := len(a.Shape)
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("szsim: bad shape %v", a.Shape)
	}
	if !(a.ErrorBound > 0) {
		return nil, errors.New("szsim: bad error bound")
	}
	out := make([]byte, 0, 2+8+1+4*d+len(a.Stream))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], szMagic)
	out = append(out, u16[:]...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], math.Float64bits(a.ErrorBound))
	out = append(out, u64[:]...)
	out = append(out, byte(d))
	var u32 [4]byte
	for _, e := range a.Shape {
		binary.LittleEndian.PutUint32(u32[:], uint32(e))
		out = append(out, u32[:]...)
	}
	return append(out, a.Stream...), nil
}

// Decode parses bytes produced by Encode. The result owns its stream.
func Decode(data []byte) (*Compressed, error) { return decode(data, false) }

// DecodeView is Decode whose Stream is data's own bytes, capacity-limited
// so an append cannot write past them. data must outlive the result and
// must not be written while it is in use.
func DecodeView(data []byte) (*Compressed, error) { return decode(data, true) }

func decode(data []byte, view bool) (*Compressed, error) {
	if len(data) < 2+8+1 {
		return nil, errors.New("szsim: stream too short")
	}
	if binary.LittleEndian.Uint16(data) != szMagic {
		return nil, errors.New("szsim: bad magic")
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(data[2:]))
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, errors.New("szsim: bad error bound")
	}
	d := int(data[10])
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("szsim: bad dimensionality %d", d)
	}
	pos := 11
	if len(data) < pos+4*d {
		return nil, errors.New("szsim: truncated header")
	}
	shape := make([]int, d)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if shape[i] <= 0 || shape[i] > 1<<24 {
			return nil, fmt.Errorf("szsim: implausible extent %d", shape[i])
		}
	}
	stream := data[pos:len(data):len(data)]
	if !view {
		stream = append([]byte(nil), stream...)
	}
	return &Compressed{Shape: shape, ErrorBound: eb, Stream: stream}, nil
}
