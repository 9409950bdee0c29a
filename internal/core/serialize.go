package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"

	"repro/internal/bits"
	"repro/internal/scalar"
	"repro/internal/transform"
)

// Serialization of the compressed form per §IV-B/§IV-C: the float and
// integer types (4 bits), the shape s (64 bits per dimension plus an end
// marker), the block shape i, the flattened pruning mask P (∏i bits), the
// flattened N (f bits each), and F (i bits per kept index). A one-byte
// magic and the transform kind are added so streams are self-describing.
//
// Four versions of the stream exist, told apart by the magic byte:
//
//	v1 (0xB7): magic, transform, types, s, i, P, N, F, then 0–7 zero bits
//	           to the next byte.
//	v2 (0xB8): magic, transform, types, s, i, P, N, then 0–7 zero bits to
//	           the next byte, then F, ending on F's last byte.
//	v3 (0xB9): magic, transform, types, s, i, P, N, then zero bits to the
//	           next byte; then one flag bit per block (1: masked), then
//	           the K-bit occupancy mask of every masked block, in block
//	           order, then zero bits to the next byte; then the index runs
//	           back to back in block order, ending on the last one's last
//	           byte: all K indices of a dense block, only the nonzero
//	           ones of a masked block, in position order.
//	v4 (0xBA): v3 through the pad after the masks, then the runs
//	           entropy-coded: a canonical Huffman code, then every index
//	           as a code and extra bits (streamv4.go). Index widths of 16
//	           bits and more only.
//
// v1 and v2 hold the same fields in the same bits; only the pad moves.
// Every index width is 8, 16, 32 or 64 bits, so F fills whole bytes, and
// from v2 on it starts on a byte boundary: DecodeView hands an int8 F to
// the kernels as the stream's own bytes, and in v3 the flags and masks
// too. N is not aligned — it is converted to float64 once per block on
// every decode anyway.
//
// v3 stores what smooth data is mostly made of, zero indices, as one mask
// bit each. The encoder masks a block when that is strictly smaller than
// dense — K + nnz·i < K·i bits — and never when its N_k is not finite or
// has its sign bit set (−0 included): under such an N_k a zero index
// recovers NaN or −0, not +0, so it cannot be left out (nonzero.go).
// Decode rejects a masked block under such an N_k. v3 is never longer
// than v2 by more than the flags and two pads. A stream with no masked
// block holds one run, F itself, which decodes exactly as v2's does.
// Encode writes v4 where it is strictly shorter than v3, else v3; Decode
// reads all four, because v1 and v2 are what older stores hold.

const (
	magicV1 = 0xB7
	magicV2 = 0xB8
	magicV3 = 0xB9
)

// maxDims bounds the number of dimensions a stream may declare.
const maxDims = 16

// shapeEnd marks the end of the shape list (the paper's "marker for the
// end of s"); no real extent is 2^64−1.
const shapeEnd = ^uint64(0)

// errIndexRange rejects the one index bit pattern binning never produces,
// −2^(b−1) (scalar.IndexType.Clamp): bins are symmetric about zero, and
// negating that index would wrap.
var errIndexRange = errors.New("core: index outside [-r, r]")

// Encode serializes a into the paper's compressed form: a v4 stream
// where that is strictly shorter than v3, else a v3 stream. One count of
// the nonzero indices, and for int16 and wider one histogram of their
// symbols, sizes the stream exactly, so it is written into one
// allocation.
func Encode(a *CompressedArray) ([]byte, error) { return encodeWith(a, pickSmaller) }

// encodeWith is Encode writing the version choice picks.
func encodeWith(a *CompressedArray, choice streamChoice) ([]byte, error) {
	size, err := CompressedSizeBits(a.Settings, a.Shape)
	if err != nil {
		return nil, err
	}
	// The switch calls the generic body directly rather than through
	// kernels so the writer stays on the stack.
	switch a.Settings.IndexType {
	case scalar.Int8:
		return encode(a, a.F.i8, size, choice)
	case scalar.Int16:
		return encode(a, a.F.i16, size, choice)
	case scalar.Int32:
		return encode(a, a.F.i32, size, choice)
	}
	return encode(a, a.F.i64, size, choice)
}

// EncodedSize returns the length in bytes of the stream Encode writes for
// a, from the same count of its nonzero indices and of their symbols.
func EncodedSize(a *CompressedArray) (int, error) {
	size, err := CompressedSizeBits(a.Settings, a.Shape)
	if err != nil {
		return 0, err
	}
	var (
		l    layout
		code v4Code
	)
	switch a.Settings.IndexType {
	case scalar.Int8:
		l, err = layoutOf(a, a.F.i8, size, &code, pickSmaller)
	case scalar.Int16:
		l, err = layoutOf(a, a.F.i16, size, &code, pickSmaller)
	case scalar.Int32:
		l, err = layoutOf(a, a.F.i32, size, &code, pickSmaller)
	default:
		l, err = layoutOf(a, a.F.i64, size, &code, pickSmaller)
	}
	return l.head + l.occ + l.runs, err
}

// layout is the byte length of a stream's three parts: the header through
// its pad, the flags and masks through theirs, and the runs, coded when v4
// is set.
type layout struct {
	head, occ, runs int
	v4              bool
}

// layoutOf checks a's F against its masks and sizes a's stream in the
// version choice picks; size is the §IV-C inventory, CompressedSizeBits.
// Unless choice is forceV3, for int16 and wider it builds the runs' code
// in code.
func layoutOf[T bits.Signed](a *CompressedArray, f []T, size int64, code *v4Code, choice streamChoice) (layout, error) {
	K, blocks, it := a.Kept(), len(a.N), a.Settings.IndexType
	ib := it.Bits()
	if blocks != a.NumBlocks() {
		return layout{}, fmt.Errorf("core: N length %d does not match %d blocks", blocks, a.NumBlocks())
	}
	if want, ok := runLength(a.occ, blocks, K); !ok || len(f) != want {
		return layout{}, fmt.Errorf("core: F length %d does not match blocks and masks (%d)", len(f), want)
	}
	if choice == forceV4 && it == scalar.Int8 {
		return layout{}, errors.New("core: stream v4 holds no int8 indices")
	}
	coded := choice != forceV3 && it != scalar.Int8
	// hist counts the symbols of the runs. The blocks' slices of F hold
	// zeros a masked block's run leaves out, and a dense block's run holds
	// zeros a slice masked in memory leaves out: zeros is the difference.
	var hist [v4Symbols]int
	r, lowest := T(it.Radius()), T(-it.Radius()-1)
	masks, n, zeros := 0, 0, 0 // masked blocks, indices stored
	cur := cursor{occ: a.occ, kept: K, at: blocks}
	for _, nk := range a.N {
		s := cur.next()
		blk := f[s.off:s.end]
		var nz int
		if coded {
			z := hist[0]
			for _, v := range blk {
				if v == lowest {
					return layout{}, errIndexRange
				}
				sym, _, _ := symbolOf(v, r)
				hist[sym]++
			}
			nz = len(blk) - (hist[0] - z)
		} else {
			nz = nonzeros(blk)
		}
		if maskable(nk, a.Settings, K, nz) {
			masks++
			n += nz
			zeros -= len(blk) - nz
		} else {
			n += K
			zeros += K - len(blk)
		}
	}
	// The header is the inventory without F, plus magic and transform.
	l := layout{
		head: (int(size) - ib*K*blocks + 10 + 7) / 8,
		occ:  (blocks + masks*K + 7) / 8,
		runs: n * ib / 8,
	}
	if coded && n > 0 {
		hist[0] += zeros
		if v4 := (code.build(&hist) + 7) / 8; v4 < l.runs || choice == forceV4 {
			l.runs, l.v4 = v4, true
		}
	}
	return l, nil
}

func encode[T bits.Signed](a *CompressedArray, f []T, size int64, choice streamChoice) ([]byte, error) {
	var code v4Code
	l, err := layoutOf(a, f, size, &code, choice)
	if err != nil {
		return nil, err
	}
	magic := uint64(magicV3)
	if l.v4 {
		magic = magicV4
	}
	var w bits.Writer
	w.Grow(8 * (l.head + l.occ + l.runs))
	writeHeader(&w, a, magic)
	w.WriteBits(0, uint(-w.Len()&7))
	out := w.Bytes()
	out = append(out, make([]byte, l.occ+l.runs)...)
	occ, run := out[l.head:l.head+l.occ], out[l.head+l.occ:]
	cw := codeWriter{buf: run}
	if l.v4 {
		cw.writeCode(&code)
	}
	K, blocks, it := a.Kept(), len(a.N), a.Settings.IndexType
	r, lowest := T(it.Radius()), T(-it.Radius()-1)
	at, o := blocks, 0 // the next mask's bit in occ, the next index's byte in run
	cur := cursor{occ: a.occ, kept: K, at: blocks}
	for k, nk := range a.N {
		s := cur.next()
		blk := f[s.off:s.end]
		dense := !maskable(nk, a.Settings, K, nonzeros(blk))
		if dense && s.at < 0 {
			// Held dense, as Compress and the Arith results write them,
			// and written dense: the run is blk.
			if l.v4 {
				// layoutOf has checked blk for −2^(b−1).
				codeRun(&cw, &code, blk, r)
				continue
			}
			for _, v := range blk {
				if v == lowest {
					return nil, errIndexRange
				}
				o = putIndex(run, o, v)
			}
			continue
		}
		if !dense {
			occ[k>>3] |= 0x80 >> (k & 7)
		}
		// A block held masked in memory is read through cells; one held
		// dense directly.
		cl := cellsOf(f, a.occ, s, K)
		for p := 0; p < K; p++ {
			var v T
			if s.at < 0 {
				v = blk[p]
			} else {
				v = cl.next()
			}
			if v == lowest {
				return nil, errIndexRange
			}
			if !dense {
				if v == 0 {
					continue
				}
				occ[(at+p)>>3] |= 0x80 >> ((at + p) & 7)
			}
			if l.v4 {
				codeRun(&cw, &code, []T{v}, r)
			} else {
				o = putIndex(run, o, v)
			}
		}
		if !dense {
			at += K
		}
	}
	if l.v4 {
		cw.flush()
	}
	return out, nil
}

// maskable reports whether the encoder writes a block masked: when N_k,
// as the stream stores it, recovers +0 from a zero index, and the mask and
// the nz nonzero indices take strictly fewer bits than the K indices.
func maskable(nk float64, s Settings, K, nz int) bool {
	ib := s.IndexType.Bits()
	return K+nz*ib < K*ib && plain(floatFromBits(floatToBits(nk, s.FloatType), s.FloatType))
}

// nonzeros counts the nonzero indices of f.
func nonzeros[T bits.Signed](f []T) int {
	n := 0
	for _, v := range f {
		if v != 0 {
			n++
		}
	}
	return n
}

// putIndex writes v big-endian at run[o:] and returns the offset after it.
func putIndex[T bits.Signed](run []byte, o int, v T) int {
	switch sizeOf[T]() {
	case 1:
		run[o] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(run[o:], uint16(v))
	case 4:
		binary.BigEndian.PutUint32(run[o:], uint32(v))
	default:
		binary.BigEndian.PutUint64(run[o:], uint64(v))
	}
	return o + sizeOf[T]()
}

// runLength returns the length of F for blocks blocks of K indices under
// occ, and false when occ is too short for its own flags and masks.
func runLength(occ []byte, blocks, K int) (int, bool) {
	if occ == nil {
		return blocks * K, true
	}
	if len(occ)*8 < blocks {
		return 0, false
	}
	m := ones(occ, 0, blocks)
	if m > 0 && K > (len(occ)*8-blocks)/m {
		return 0, false
	}
	return (blocks-m)*K + ones(occ, blocks, blocks+m*K), true
}

// writeHeader writes every field before the pad that ends N: the magic,
// the transform, the types, s, i, P and N.
func writeHeader(w *bits.Writer, a *CompressedArray, magic uint64) {
	w.WriteBits(magic, 8)
	w.WriteBits(uint64(a.Settings.Transform), 2)
	// The paper's 4 bits of type information: 2 for the float type, 2 for
	// the index type.
	w.WriteBits(uint64(a.Settings.FloatType), 2)
	w.WriteBits(uint64(a.Settings.IndexType), 2)
	for _, e := range a.Shape {
		w.WriteBits(uint64(e), 64)
	}
	w.WriteBits(shapeEnd, 64)
	for _, e := range a.Settings.BlockShape {
		w.WriteBits(uint64(e), 64)
	}
	// Pruning mask, ∏i bits.
	blockVol := 1
	for _, e := range a.Settings.BlockShape {
		blockVol *= e
	}
	for pos := 0; pos < blockVol; pos++ {
		w.WriteBool(a.Settings.Mask == nil || a.Settings.Mask[pos])
	}
	// N, f bits per block.
	fbits := uint(a.Settings.FloatType.Bits())
	for _, n := range a.N {
		w.WriteBits(floatToBits(n, a.Settings.FloatType), fbits)
	}
}

// Decode parses a v1, v2, v3 or v4 compressed stream into a
// CompressedArray that owns all of its memory: nothing in the result
// aliases data.
func Decode(data []byte) (*CompressedArray, error) { return decode(data, false) }

// decode is Decode, and DecodeView when view is set.
func decode(data []byte, view bool) (*CompressedArray, error) {
	r := bits.NewReader(data)
	magic, err := r.ReadBits(8)
	if err != nil || magic < magicV1 || magic > magicV4 {
		return nil, errors.New("core: not a goblaz compressed stream")
	}
	tk, err := r.ReadBits(2)
	if err != nil {
		return nil, err
	}
	ftv, err := r.ReadBits(2)
	if err != nil {
		return nil, err
	}
	itv, err := r.ReadBits(2)
	if err != nil {
		return nil, err
	}
	s := Settings{
		FloatType: scalar.FloatType(ftv),
		IndexType: scalar.IndexType(itv),
		Transform: transform.Kind(tk),
	}
	// The extents are read onto the stack, so that Shape, BlockShape and
	// Blocks can share one allocation once the dimension count is known.
	var ext [maxDims]int
	d := 0
	for {
		e, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		if e == shapeEnd {
			break
		}
		if e == 0 || e > 1<<40 {
			return nil, fmt.Errorf("core: implausible shape extent %d", e)
		}
		if d == maxDims {
			return nil, errors.New("core: too many dimensions")
		}
		ext[d] = int(e)
		d++
	}
	if d == 0 {
		return nil, errors.New("core: empty shape")
	}
	// Three-index slices: an append to one of them reallocates instead of
	// writing into its neighbour.
	dims := make([]int, 3*d)
	shape, blockShape, blocks := dims[0:d:d], dims[d:2*d:2*d], dims[2*d:]
	copy(shape, ext[:d])
	blockVol := 1
	for i := range blockShape {
		e, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		if e == 0 || e > 1<<20 {
			return nil, fmt.Errorf("core: implausible block extent %d", e)
		}
		// Extents are individually bounded but there can be 16 of them;
		// guard the product exactly like numBlocks below, or a crafted
		// header wraps blockVol and bypasses the Remaining() check.
		if blockVol > (1<<40)/int(e) {
			return nil, errors.New("core: implausible block volume")
		}
		blockShape[i] = int(e)
		blockVol *= int(e)
	}
	s.BlockShape = blockShape
	// The mask occupies ∏i bits; reject before allocating ∏i bools.
	if r.Remaining() < blockVol {
		return nil, fmt.Errorf("core: stream too short for %d mask bits", blockVol)
	}
	// A mask that keeps everything is nil, so it is allocated only at the
	// first pruned position, with every position before it kept.
	kept := 0
	for pos := 0; pos < blockVol; pos++ {
		b, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if !b && s.Mask == nil {
			s.Mask = make([]bool, blockVol)
			for i := range s.Mask[:pos] {
				s.Mask[i] = true
			}
		}
		if s.Mask != nil {
			s.Mask[pos] = b
		}
		if b {
			kept++
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	numBlocks := 1
	for i := range shape {
		blocks[i] = (shape[i] + blockShape[i] - 1) / blockShape[i]
		if numBlocks > (1<<40)/blocks[i] {
			return nil, errors.New("core: implausible block count")
		}
		numBlocks *= blocks[i]
	}
	// The remaining stream must hold N, and in v1 and v2 all of F; from v3
	// on a flag bit a block beside N, the masks and runs being checked
	// once the flags are read. Reject corrupted headers before allocating
	// anything sized by them. numBlocks ≤ 2^40 and kept ≤ 2^40 bound each
	// factor but not the product, so compare by division: a header
	// claiming 2^63 bits must not wrap into range.
	blockBits := s.FloatType.Bits() + kept*s.IndexType.Bits()
	if magic >= magicV3 {
		blockBits = s.FloatType.Bits() + 1
	}
	if magic == magicV4 && s.IndexType == scalar.Int8 {
		return nil, errors.New("core: stream v4 holds no int8 indices")
	}
	if numBlocks > r.Remaining()/blockBits {
		return nil, fmt.Errorf("core: stream too short: need %d blocks of %d bits, have %d bits",
			numBlocks, blockBits, r.Remaining())
	}
	a := &CompressedArray{
		Shape:    shape,
		Blocks:   blocks,
		N:        make([]float64, numBlocks),
		Settings: s,
	}
	fbits := uint(s.FloatType.Bits())
	for k := range a.N {
		v, err := r.ReadBits(fbits)
		if err != nil {
			return nil, err
		}
		a.N[k] = floatFromBits(v, s.FloatType)
	}
	n := numBlocks * kept
	if magic != magicV1 {
		// The pad runs to the byte boundary.
		pad, err := r.ReadBits(uint(r.Remaining() & 7))
		if err != nil {
			return nil, err
		}
		if pad != 0 {
			return nil, errors.New("core: nonzero pad bits after N")
		}
		runs := data[len(data)-r.Remaining()/8:]
		if magic >= magicV3 {
			// An index takes its width in v3, at least a bit in v4.
			per := s.IndexType.Bits()
			if magic == magicV4 {
				per = 1
			}
			if a.occ, runs, n, err = readOccupancy(a.N, runs, kept, per); err != nil {
				return nil, err
			}
		}
		if magic == magicV4 {
			return decodeV4(a, runs, n, !view && a.occ != nil)
		}
		if need := n * s.IndexType.Bits(); len(runs)*8 != need {
			return nil, fmt.Errorf("core: stream holds %d bits of index runs, they take %d", len(runs)*8, need)
		}
		if view && s.IndexType == scalar.Int8 {
			if bytes.IndexByte(runs, 0x80) >= 0 {
				return nil, errIndexRange
			}
			a.F.i8 = int8s(runs)
			return a, nil
		}
		r = bits.NewReader(runs)
	}
	// F is bulk-unpacked at its own width, so the decoded array holds no
	// more than the payload did; Decode copies the masks into the same
	// allocation. As in Encode, the switch keeps r on the stack.
	own := !view && a.occ != nil
	switch s.IndexType {
	case scalar.Int8:
		a.F.i8, a.occ, err = unpackIndices[int8](r, n, s.IndexType, a.occ, own)
	case scalar.Int16:
		a.F.i16, a.occ, err = unpackIndices[int16](r, n, s.IndexType, a.occ, own)
	case scalar.Int32:
		a.F.i32, a.occ, err = unpackIndices[int32](r, n, s.IndexType, a.occ, own)
	default:
		a.F.i64, a.occ, err = unpackIndices[int64](r, n, s.IndexType, a.occ, own)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// readOccupancy splits what follows the pad after N in a v3 or v4 stream
// into the flags and masks and the index runs, and returns the first (nil
// when no block is masked) with the number of indices the runs hold, at
// no fewer than per bits each. It rejects a masked block whose N_k is not
// plain, set pad bits, masks that run past the stream, and masks that
// mark more indices than the runs can hold.
func readOccupancy(n []float64, rest []byte, K, per int) (occ, runs []byte, count int, err error) {
	blocks := len(n)
	if len(rest)*8 < blocks {
		return nil, nil, 0, fmt.Errorf("core: stream too short for %d block flags", blocks)
	}
	for k, nk := range n {
		if masked(rest, k) && !plain(nk) {
			return nil, nil, 0, fmt.Errorf("core: masked block %d has N = %v", k, nk)
		}
	}
	m := ones(rest, 0, blocks)
	if m > 0 && K > (len(rest)*8-blocks)/m {
		return nil, nil, 0, fmt.Errorf("core: stream too short for %d masks of %d bits", m, K)
	}
	end := blocks + m*K
	occ, runs = rest[:(end+7)/8], rest[(end+7)/8:]
	if end&7 != 0 && occ[len(occ)-1]&(0xff>>(end&7)) != 0 {
		return nil, nil, 0, errors.New("core: nonzero pad bits after the masks")
	}
	dense, room := blocks-m, len(runs)*8/per
	if dense > 0 && K > room/dense {
		return nil, nil, 0, fmt.Errorf("core: stream holds %d bytes of index runs, too few for %d dense blocks", len(runs), dense)
	}
	// The pad is zero, so the masks hold every set bit but the flags'.
	if count = dense*K + popcount(occ) - m; count > room {
		return nil, nil, 0, fmt.Errorf("core: stream holds %d bytes of index runs, the masks mark %d indices", len(runs), count)
	}
	if m == 0 {
		occ = nil
	}
	return occ, runs, count, nil
}

// popcount counts the set bits of b, eight bytes at a time.
func popcount(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += mathbits.OnesCount64(binary.LittleEndian.Uint64(b))
	}
	for _, x := range b {
		n += mathbits.OnesCount8(x)
	}
	return n
}

// unpackIndices reads n indices of width T from r into a new slice (see
// newIndices for occ and own).
func unpackIndices[T bits.Signed](r *bits.Reader, n int, it scalar.IndexType, occ []byte, own bool) ([]T, []byte, error) {
	f, occ := newIndices[T](n, occ, own)
	sawLowest, err := bits.UnpackSigned(r, f, uint(it.Bits()))
	if err != nil {
		return nil, nil, err
	}
	if sawLowest {
		return nil, nil, errIndexRange
	}
	return f, occ, nil
}

// newIndices allocates F for n indices. With own set it copies occ into
// the tail of the same allocation and returns that copy, so that the array
// owns its masks too; otherwise occ as is.
func newIndices[T bits.Signed](n int, occ []byte, own bool) ([]T, []byte) {
	extra := 0
	if own {
		extra = (len(occ) + sizeOf[T]() - 1) / sizeOf[T]()
	}
	f := make([]T, n+extra)
	if own {
		occ = append(bytesOf(f[n:])[:0], occ...)
	}
	return f[:n:n], occ
}

// decodeV4 decodes the n coded indices of a v4 stream's runs into a, its
// masks copied when own is set.
func decodeV4(a *CompressedArray, runs []byte, n int, own bool) (*CompressedArray, error) {
	var err error
	switch a.Settings.IndexType {
	case scalar.Int16:
		a.F.i16, a.occ = newIndices[int16](n, a.occ, own)
		err = decodeRuns(runs, a.F.i16, 16)
	case scalar.Int32:
		a.F.i32, a.occ = newIndices[int32](n, a.occ, own)
		err = decodeRuns(runs, a.F.i32, 32)
	default:
		a.F.i64, a.occ = newIndices[int64](n, a.occ, own)
		err = decodeRuns(runs, a.F.i64, 64)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

func floatToBits(x float64, ft scalar.FloatType) uint64 {
	switch ft {
	case scalar.BFloat16:
		return uint64(scalar.ToBFloat16Bits(x))
	case scalar.Float16:
		return uint64(scalar.ToFloat16Bits(x))
	case scalar.Float32:
		return uint64(math.Float32bits(float32(x)))
	default:
		return math.Float64bits(x)
	}
}

func floatFromBits(v uint64, ft scalar.FloatType) float64 {
	switch ft {
	case scalar.BFloat16:
		return scalar.FromBFloat16Bits(uint16(v))
	case scalar.Float16:
		return scalar.FromFloat16Bits(uint16(v))
	case scalar.Float32:
		return float64(math.Float32frombits(uint32(v)))
	default:
		return math.Float64frombits(v)
	}
}

// CompressedSizeBits returns the exact size in bits of the §IV-C stored
// components for an array of the given shape under settings s:
// 4 (types) + 64·d (s) + 64 (end marker) + 64·d (i) + ∏i (P) +
// f·∏⌈s⊘i⌉ (N) + i·ΣP·∏⌈s⊘i⌉ (F).
func CompressedSizeBits(s Settings, shape []int) (int64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if len(shape) != len(s.BlockShape) {
		return 0, fmt.Errorf("core: shape %v does not match block shape %v", shape, s.BlockShape)
	}
	d := int64(len(shape))
	blockVol := int64(1)
	kept := int64(0)
	for _, e := range s.BlockShape {
		blockVol *= int64(e)
	}
	if s.Mask == nil {
		kept = blockVol
	} else {
		for _, keep := range s.Mask {
			if keep {
				kept++
			}
		}
	}
	numBlocks := int64(1)
	for dd := range shape {
		numBlocks *= int64((shape[dd] + s.BlockShape[dd] - 1) / s.BlockShape[dd])
	}
	f := int64(s.FloatType.Bits())
	ib := int64(s.IndexType.Bits())
	return 4 + 64*d + 64 + 64*d + blockVol + f*numBlocks + ib*kept*numBlocks, nil
}

// CompressionRatio returns the asymptotic compression ratio of §IV-C for
// u-bit input elements:
//
//	u·∏s / ((f + i·ΣP)·∏⌈s⊘i⌉)
//
// This is the data-independent ratio the paper reports (e.g. ≈2.91 for a
// (3,224,224) float64 array with (4,4,4) blocks, float32, int16, no
// pruning, and ≈10.66 with int8 and half the indices pruned).
func CompressionRatio(s Settings, shape []int, inputBits int) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if len(shape) != len(s.BlockShape) {
		return 0, fmt.Errorf("core: shape %v does not match block shape %v", shape, s.BlockShape)
	}
	volume := 1.0
	for _, e := range shape {
		volume *= float64(e)
	}
	kept := 0
	blockVol := 1
	for _, e := range s.BlockShape {
		blockVol *= e
	}
	if s.Mask == nil {
		kept = blockVol
	} else {
		for _, keep := range s.Mask {
			if keep {
				kept++
			}
		}
	}
	numBlocks := 1.0
	for d := range shape {
		numBlocks *= float64((shape[d] + s.BlockShape[d] - 1) / s.BlockShape[d])
	}
	denom := (float64(s.FloatType.Bits()) + float64(s.IndexType.Bits())*float64(kept)) * numBlocks
	return float64(inputBits) * volume / denom, nil
}
