package api

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// FramesContentType is the media type of the binary ingest body that
// POST /v1/frames accepts beside NDJSON, and the one Client.Ingest
// sends. Its layout, all integers little-endian:
//
//	magic    "GBF" + version byte (1)
//	count    u32                        frames in the batch
//	per frame:
//	  label  i64
//	  dims   u8                         number of extents
//	  extent u32 × dims
//	  spec   u16 length + bytes         "" = the store's assignment
//	  data   float64 × ∏extents         raw IEEE 754 bits, row-major
//
// The floats travel as their bits, so −0, subnormals and every last
// ulp arrive as sent; NaN and ±Inf are refused on both ends, because
// the NDJSON body cannot carry them either.
const FramesContentType = "application/x-goblaz-frames"

const (
	framesMagic   = "GBF"
	framesVersion = 1
	framesHeader  = len(framesMagic) + 1 + 4
	// frameFixed is a frame's bytes besides its extents, spec and data:
	// label, dimension count, spec length.
	frameFixed = 8 + 1 + 2
	// expBits masks a float64's exponent: all ones is NaN or ±Inf.
	expBits = 0x7FF0000000000000
)

// AppendFrames appends the binary ingest body of frames to dst, growing
// it once to the exact size. It fails on a frame the layout cannot
// carry — more than 255 dimensions, an extent outside u32, a spec over
// 65535 bytes, data whose length is not the shape's product — and on a
// NaN or ±Inf value; the messages name the frame the way the store's
// own validation does.
func AppendFrames(dst []byte, frames []IngestFrame) ([]byte, error) {
	if uint64(len(frames)) > math.MaxUint32 {
		return nil, fmt.Errorf("ingest batch of %d frames exceeds the body's u32 count", len(frames))
	}
	size := framesHeader
	for i, f := range frames {
		if err := checkFrame(i, f); err != nil {
			return nil, err
		}
		size += frameFixed + 4*len(f.Shape) + len(f.Spec) + 8*len(f.Data)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, framesMagic...)
	dst = append(dst, framesVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(frames)))
	for i, f := range frames {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(f.Label)))
		dst = append(dst, byte(len(f.Shape)))
		for _, e := range f.Shape {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Spec)))
		dst = append(dst, f.Spec...)
		at := len(dst)
		dst = dst[:at+8*len(f.Data)]
		for j, v := range f.Data {
			bits := math.Float64bits(v)
			if bits&expBits == expBits {
				return nil, fmt.Errorf("frame %d (label %d): value %d is %v; ingest carries finite values only", i, f.Label, j, v)
			}
			binary.LittleEndian.PutUint64(dst[at+8*j:], bits)
		}
	}
	return dst, nil
}

// checkFrame rejects what the binary layout cannot represent. A shape
// that does not match its data gets the store's own message, so the
// caller reads what the server would have answered.
func checkFrame(i int, f IngestFrame) error {
	if len(f.Shape) > math.MaxUint8 {
		return fmt.Errorf("frame %d (label %d): %d dimensions exceed the body's 255", i, f.Label, len(f.Shape))
	}
	if len(f.Spec) > math.MaxUint16 {
		return fmt.Errorf("frame %d (label %d): spec of %d bytes exceeds the body's 65535", i, f.Label, len(f.Spec))
	}
	for _, e := range f.Shape {
		if e < 0 || uint64(e) > math.MaxUint32 {
			return fmt.Errorf("frame %d (label %d): bad shape %v", i, f.Label, f.Shape)
		}
	}
	n, ok := shapeValues(len(f.Shape), func(k int) uint64 { return uint64(f.Shape[k]) }, uint64(len(f.Data)))
	if !ok || n != uint64(len(f.Data)) {
		need := 1
		for _, e := range f.Shape {
			need *= e
		}
		return fmt.Errorf("frame %d (label %d): shape %v needs %d values, got %d", i, f.Label, f.Shape, need, len(f.Data))
	}
	return nil
}

// ParseFrames decodes a binary ingest body. It owns framing only —
// shape, length and spec validation stay with the Ingestor, so both
// bodies fail a bad frame with the same message. It rejects a wrong
// magic or version, truncation anywhere, trailing bytes, and extents
// whose product overflows or exceeds what the remaining bytes can
// hold, all before allocating; a NaN or ±Inf value is rejected too.
// What it allocates is bounded by a constant times len(body). Errors
// are CodeBadRequest.
func ParseFrames(body []byte) ([]IngestFrame, error) {
	count, dims, values, err := scanFrames(body)
	if err != nil {
		return nil, err
	}
	frames := make([]IngestFrame, count)
	shapes := make([]int, dims)
	data := make([]float64, values)
	off := framesHeader
	var spec string
	for i := range frames {
		f := &frames[i]
		f.Label = int(int64(binary.LittleEndian.Uint64(body[off:])))
		d := int(body[off+8])
		off += 9
		f.Shape, shapes = shapes[:d:d], shapes[d:]
		n := 1
		for k := range f.Shape {
			f.Shape[k] = int(binary.LittleEndian.Uint32(body[off:]))
			n *= f.Shape[k]
			off += 4
		}
		sl := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		// Batches usually repeat one spec (or none): intern it.
		if s := body[off : off+sl]; string(s) != spec {
			spec = string(s)
		}
		f.Spec = spec
		off += sl
		f.Data, data = data[:n:n], data[n:]
		for j := range f.Data {
			bits := binary.LittleEndian.Uint64(body[off:])
			if bits&expBits == expBits {
				return nil, Errorf(CodeBadRequest, "ingest body: frame %d (label %d): value %d is not finite", i, f.Label, j)
			}
			f.Data[j] = math.Float64frombits(bits)
			off += 8
		}
	}
	return frames, nil
}

// scanFrames walks the body's framing without allocating and returns
// the frame count and the total extents and values ParseFrames will
// hold.
func scanFrames(body []byte) (count, dims, values int, err error) {
	if len(body) < framesHeader || string(body[:len(framesMagic)]) != framesMagic {
		return 0, 0, 0, Errorf(CodeBadRequest, "ingest body: not a %s body (bad magic)", FramesContentType)
	}
	if v := body[len(framesMagic)]; v != framesVersion {
		return 0, 0, 0, Errorf(CodeBadRequest, "ingest body: unsupported version %d (want %d)", v, framesVersion)
	}
	n := int(binary.LittleEndian.Uint32(body[len(framesMagic)+1:]))
	rest := body[framesHeader:]
	truncated := func(i int) error {
		return Errorf(CodeBadRequest, "ingest body: truncated in frame %d of %d", i, n)
	}
	for i := 0; i < n; i++ {
		if len(rest) < 9 {
			return 0, 0, 0, truncated(i)
		}
		d := int(rest[8])
		rest = rest[9:]
		if len(rest) < 4*d+2 {
			return 0, 0, 0, truncated(i)
		}
		ext := rest[:4*d]
		sl := int(binary.LittleEndian.Uint16(rest[4*d:]))
		rest = rest[4*d+2:]
		if len(rest) < sl {
			return 0, 0, 0, truncated(i)
		}
		rest = rest[sl:]
		vals, ok := shapeValues(d, func(k int) uint64 { return uint64(binary.LittleEndian.Uint32(ext[4*k:])) }, uint64(len(rest))/8)
		if !ok {
			return 0, 0, 0, Errorf(CodeBadRequest, "ingest body: frame %d: extents need more values than the %d bytes left", i, len(rest))
		}
		rest = rest[8*vals:]
		dims += d
		values += int(vals)
	}
	if len(rest) > 0 {
		return 0, 0, 0, Errorf(CodeBadRequest, "ingest body: %d trailing bytes after %d frames", len(rest), n)
	}
	return n, dims, values, nil
}

// shapeValues multiplies d extents read through ext, failing once the
// running product exceeds max — so it never overflows. A zero extent
// makes the product zero whatever the others are; no extent at all
// makes it one.
func shapeValues(d int, ext func(k int) uint64, max uint64) (uint64, bool) {
	for k := 0; k < d; k++ {
		if ext(k) == 0 {
			return 0, true
		}
	}
	n := uint64(1)
	for k := 0; k < d; k++ {
		e := ext(k)
		if n > max/e {
			return 0, false
		}
		n *= e
	}
	return n, n <= max
}
