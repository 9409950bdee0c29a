package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// Reader provides random access to the frames of a store. Opening parses
// only the header and footer index; frame payloads are read and decoded
// lazily, one ReadAt per access, so a multi-gigabyte store costs index
// memory only. Codecs are constructed on first decode, one per distinct
// spec: a version-2 store may mix codecs frame by frame (the footer
// interns each spec once), and a version-1 store — the original
// single-spec format — reads identically with every frame on the
// default spec.
//
// A Reader is safe for concurrent use: ReadAt is positioned I/O (no
// shared file cursor), the index is immutable after open, and registry
// codecs are documented concurrency-safe. Close must not race with
// in-flight accesses; accesses after Close fail with ErrClosed.
type Reader struct {
	r         io.ReaderAt
	closer    io.Closer // set when Open owns the file
	mem       []byte    // mmap-backed image when built by OpenReaderMmap
	closed    atomic.Bool
	id        uint64 // process-unique reader identity (see FrameKey)
	version   int
	specs     []string // specs[0] = default (header), 1.. = footer table
	footerCRC uint32
	headerEnd int64 // first byte after the header
	footerOff int64 // first byte of the footer
	frames    []FrameInfo
	index     map[int]int // label → frame position

	// verified is a bitmap of frames whose payload CRC has already been
	// checked, so zero-copy serving (PayloadReader) pays the checksum
	// pass once per frame instead of once per request.
	verified []atomic.Uint32

	// coders constructs each spec's codec lazily, once — one cell per
	// entry of specs.
	coders []coderCell
}

// coderCell is one spec's lazily constructed codec.
type coderCell struct {
	once  sync.Once
	coder codec.Coder
	err   error
}

// ErrClosed reports an access through a Reader whose Close already ran;
// unwrap with errors.Is.
var ErrClosed = errors.New("store: reader is closed")

// readerID hands each Reader a process-unique identity.
var readerID atomic.Uint64

// Open opens a store file for random access. The returned Reader owns
// the file handle; release it with Close. Every failure after os.Open —
// stat, header/spec/footer parsing — closes the handle before
// returning, so a directory of corrupt stores cannot exhaust
// descriptors.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := func() (*Reader, error) {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		return NewReader(f, st.Size())
	}()
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// OpenReaderMmap opens the store at path backed by a read-only memory
// mapping instead of positioned file reads: payload access serves bytes
// straight from the page cache with no read syscall, and Frame decodes
// straight from the mapping with no intermediate payload allocation. On
// platforms without mmap it falls back to Open — the Reader API is
// identical either way; Mapped reports which one was taken. Close
// releases the mapping (and must not race with in-flight accesses):
// neither raw payload bytes nor a Frame decoded from the mapping may be
// used after it.
func OpenReaderMmap(path string) (*Reader, error) {
	return openReaderMmap(path)
}

// Mapped reports whether the reader serves from a memory mapping
// (OpenReaderMmap on a supporting platform) rather than file reads.
func (r *Reader) Mapped() bool { return r.mem != nil }

// NewReader parses a store from any positioned reader of the given total
// size — an *os.File, a *bytes.Reader over a memory-mapped or in-memory
// image, etc. Version 1 and version 2 stores both parse; see the
// package comment for the layouts.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	// Header: magic, version, default spec.
	minHeader := headerSize("") + 1 // at least one spec byte
	if size < minHeader+trailerSize {
		return nil, truncErr("store")
	}
	hdr := make([]byte, len(headerMagic)+1+2)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, truncErr("header")
	}
	if string(hdr[:len(headerMagic)]) != headerMagic {
		return nil, fmt.Errorf("store: not a store file (bad magic)")
	}
	v := int(hdr[len(headerMagic)])
	if v != version1 && v != version2 {
		return nil, fmt.Errorf("store: unsupported version %d", v)
	}
	specLen := int64(binary.BigEndian.Uint16(hdr[len(headerMagic)+1:]))
	if specLen == 0 {
		return nil, fmt.Errorf("store: empty codec spec")
	}
	headerEnd := int64(len(hdr)) + specLen
	if headerEnd+trailerSize > size {
		return nil, truncErr("header")
	}
	spec := make([]byte, specLen)
	if _, err := r.ReadAt(spec, int64(len(hdr))); err != nil {
		return nil, truncErr("header")
	}

	// Trailer: locate and validate the footer.
	trailer := make([]byte, trailerSize)
	if _, err := r.ReadAt(trailer, size-trailerSize); err != nil {
		return nil, truncErr("trailer")
	}
	if string(trailer[20:]) != trailerMagic {
		return nil, fmt.Errorf("store: missing trailer (file truncated or not a store)")
	}
	footerOff := int64(binary.BigEndian.Uint64(trailer))
	count := binary.BigEndian.Uint64(trailer[8:])
	footerCRC := binary.BigEndian.Uint32(trailer[16:])
	entSize := int64(entrySize)
	if v == version1 {
		entSize = entrySizeV1
	}
	if count > uint64((size-headerEnd-trailerSize)/entSize) {
		return nil, truncErr("footer")
	}
	entriesOff := size - trailerSize - int64(count)*entSize
	if v == version1 {
		// v1 has no spec table: the footer is exactly the entries.
		if footerOff != entriesOff || footerOff < headerEnd {
			return nil, fmt.Errorf("store: footer offset %d inconsistent with file size %d and %d frames",
				footerOff, size, count)
		}
	} else if footerOff < headerEnd || footerOff+2 > entriesOff {
		// v2: the spec table (at least its uint16 count) sits between
		// footerOff and the entries.
		return nil, fmt.Errorf("store: footer offset %d inconsistent with file size %d and %d frames",
			footerOff, size, count)
	}
	footer := make([]byte, size-trailerSize-footerOff)
	if _, err := r.ReadAt(footer, footerOff); err != nil {
		return nil, truncErr("footer")
	}
	if got := crc32.ChecksumIEEE(footer); got != footerCRC {
		return nil, fmt.Errorf("%w: footer has %08x, trailer says %08x", ErrCRCMismatch, got, footerCRC)
	}

	// Spec table (v2): interned extra specs, ids 1..n.
	specs := []string{string(spec)}
	entries := footer
	if v == version2 {
		n := int(binary.BigEndian.Uint16(footer))
		rest := footer[2 : len(footer)-int(count)*int(entSize)]
		for k := 0; k < n; k++ {
			if len(rest) < 2 {
				return nil, truncErr("spec table")
			}
			sl := int(binary.BigEndian.Uint16(rest))
			rest = rest[2:]
			if sl == 0 || len(rest) < sl {
				return nil, fmt.Errorf("store: spec table entry %d malformed", k+1)
			}
			specs = append(specs, string(rest[:sl]))
			rest = rest[sl:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("store: %d stray bytes between spec table and frame index", len(rest))
		}
		entries = footer[len(footer)-int(count)*int(entSize):]
	}

	frames := make([]FrameInfo, count)
	index := make(map[int]int, count)
	for i := range frames {
		e := parseEntry(entries[int64(i)*entSize:], int(entSize))
		// Compare by subtraction, not e.Offset+e.Length: a crafted length
		// near 2^63 would wrap the sum negative and slip past the check,
		// then panic allocating the payload buffer.
		if e.Length < 0 || e.Offset < headerEnd || e.Offset > footerOff || e.Length > footerOff-e.Offset {
			return nil, fmt.Errorf("store: frame %d spans [%d, %d), outside the data region [%d, %d)",
				i, e.Offset, e.Offset+e.Length, headerEnd, footerOff)
		}
		if e.SpecID >= len(specs) {
			return nil, fmt.Errorf("store: frame %d names spec id %d, spec table has %d entries",
				i, e.SpecID, len(specs)-1)
		}
		if _, dup := index[e.Label]; dup {
			return nil, fmt.Errorf("store: duplicate frame label %d", e.Label)
		}
		frames[i] = e
		index[e.Label] = i
	}
	return &Reader{
		r: r, id: readerID.Add(1), version: v, specs: specs, footerCRC: footerCRC,
		headerEnd: headerEnd, footerOff: footerOff,
		frames: frames, index: index,
		verified: make([]atomic.Uint32, (count+31)/32),
		coders:   make([]coderCell, len(specs)),
	}, nil
}

// FooterCRC returns the CRC32 of the footer — a fingerprint of the
// store's whole frame inventory (labels, offsets, payload CRCs, and in
// v2 the spec table). Dataset manifests record it per shard to detect
// swapped or stale shard files at open.
func (r *Reader) FooterCRC() uint32 { return r.footerCRC }

// DataRegion returns the byte range [start, end) between the header and
// the footer. Every frame payload lies inside it; bytes of the region no
// frame covers are dead (footers superseded by later commits of an
// appendable store).
func (r *Reader) DataRegion() (start, end int64) { return r.headerEnd, r.footerOff }

// FrameKey returns a stable, process-unique identity for frame i: this
// reader instance plus the frame position. Consumers key shared caches
// of decoded frames with it, so two engines over the same reader share
// entries while engines over different readers can never alias.
func (r *Reader) FrameKey(i int) (source uint64, frame int) { return r.id, i }

// Close releases the file handle (Open) or memory mapping
// (OpenReaderMmap) when the Reader owns one; it is a no-op for
// NewReader. Close is idempotent; every later access fails with
// ErrClosed instead of touching released resources.
func (r *Reader) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// access guards every payload read: frame bounds plus the closed flag —
// an unmapped mmap region must fail cleanly, never fault.
func (r *Reader) access(i int) (FrameInfo, error) {
	if i < 0 || i >= len(r.frames) {
		return FrameInfo{}, fmt.Errorf("store: frame %d out of range [0, %d)", i, len(r.frames))
	}
	if r.closed.Load() {
		return FrameInfo{}, fmt.Errorf("store: frame %d: %w", i, ErrClosed)
	}
	return r.frames[i], nil
}

// Version returns the store's on-disk format version (1 or 2).
func (r *Reader) Version() int { return r.version }

// Spec returns the default codec spec string embedded in the header.
func (r *Reader) Spec() string { return r.specs[0] }

// Specs returns every codec spec the store uses: the default first,
// then the footer table in id order. A codec-uniform store returns a
// one-element slice.
func (r *Reader) Specs() []string {
	return append([]string(nil), r.specs...)
}

// FrameSpec returns the codec spec of frame i. For every frame of a
// version-1 (or uniform version-2) store this is Spec().
func (r *Reader) FrameSpec(i int) string {
	return r.specs[r.frames[i].SpecID]
}

// Len returns the number of frames.
func (r *Reader) Len() int { return len(r.frames) }

// Info returns the index entry of frame i.
func (r *Reader) Info(i int) FrameInfo { return r.frames[i] }

// Frames returns a copy of the full frame index, in commit order.
func (r *Reader) Frames() []FrameInfo {
	return append([]FrameInfo(nil), r.frames...)
}

// IndexOf returns the position of the frame with the given label.
func (r *Reader) IndexOf(label int) (int, bool) {
	i, ok := r.index[label]
	return i, ok
}

// FrameCoder returns the codec that wrote frame i, constructing it on
// first use. Construction happens once per distinct spec, not per
// frame, so a million-frame mixed store still builds at most one codec
// per table entry.
func (r *Reader) FrameCoder(i int) (codec.Coder, error) {
	if i < 0 || i >= len(r.frames) {
		return nil, fmt.Errorf("store: frame %d out of range [0, %d)", i, len(r.frames))
	}
	return r.coderAt(r.frames[i].SpecID)
}

// coderAt lazily constructs the codec for spec id.
func (r *Reader) coderAt(id int) (codec.Coder, error) {
	cell := &r.coders[id]
	cell.once.Do(func() {
		cd, err := codec.Lookup(r.specs[id])
		if err != nil {
			cell.err = err
			return
		}
		coder, ok := cd.(codec.Coder)
		if !ok {
			cell.err = fmt.Errorf("store: codec %q does not support byte serialization", cd.Name())
			return
		}
		cell.coder = coder
	})
	return cell.coder, cell.err
}

// Payload reads the raw encoded bytes of frame i and verifies their
// checksum.
func (r *Reader) Payload(i int) ([]byte, error) {
	return r.PayloadAppend(nil, i)
}

// PayloadAppend appends the raw encoded bytes of frame i to dst
// (growing it as needed) and verifies their checksum. A caller that
// passes pooled scratch as dst turns Payload's per-call allocation into
// buffer reuse.
func (r *Reader) PayloadAppend(dst []byte, i int) ([]byte, error) {
	e, err := r.access(i)
	if err != nil {
		return nil, err
	}
	if view, ok := r.payloadView(e); ok {
		if err := r.verifyOnce(i, e, view); err != nil {
			return nil, err
		}
		payloadReadsMmap.Inc()
		payloadBytesMmap.Add(uint64(len(view)))
		return append(dst, view...), nil
	}
	n := len(dst)
	if need := n + int(e.Length); cap(dst) < need {
		grown := make([]byte, need)
		copy(grown, dst[:n])
		dst = grown
	} else {
		dst = dst[:need]
	}
	buf := dst[n:]
	if _, err := r.r.ReadAt(buf, e.Offset); err != nil {
		return nil, fmt.Errorf("store: reading frame %d: %w", i, err)
	}
	crcPerformed.Inc()
	if got := crc32.ChecksumIEEE(buf); got != e.CRC32 {
		return nil, fmt.Errorf("%w: frame %d (label %d) has %08x, index says %08x",
			ErrCRCMismatch, i, e.Label, got, e.CRC32)
	}
	payloadReadsFile.Inc()
	payloadBytesFile.Add(uint64(e.Length))
	return dst, nil
}

// payloadView returns frame e's bytes as a slice of the memory mapping,
// zero-copy; ok is false for file-backed readers. Callers must treat
// the view as read-only and must not retain it past the Reader's Close.
func (r *Reader) payloadView(e FrameInfo) ([]byte, bool) {
	if r.mem == nil {
		return nil, false
	}
	return r.mem[e.Offset : e.Offset+e.Length], true
}

// verifyOnce checks frame i's payload CRC the first time the frame is
// served zero-copy and remembers the verdict in a bitmap, so repeated
// serving of a hot frame does not re-hash it per request. data must be
// the frame's full payload. Concurrent first accesses may both hash;
// both reach the same verdict (the mapping is immutable).
func (r *Reader) verifyOnce(i int, e FrameInfo, data []byte) error {
	if r.isVerified(i) {
		crcSkipped.Inc()
		return nil
	}
	crcPerformed.Inc()
	if got := crc32.ChecksumIEEE(data); got != e.CRC32 {
		return fmt.Errorf("%w: frame %d (label %d) has %08x, index says %08x",
			ErrCRCMismatch, i, e.Label, got, e.CRC32)
	}
	r.markVerified(i)
	return nil
}

// isVerified reports whether frame i's payload CRC has been checked.
func (r *Reader) isVerified(i int) bool {
	return r.verified[i/32].Load()&(1<<(i%32)) != 0
}

// markVerified records frame i's payload CRC as checked.
func (r *Reader) markVerified(i int) {
	word, bit := &r.verified[i/32], uint32(1)<<(i%32)
	for {
		if old := word.Load(); word.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// PayloadReader returns frame i's raw encoded bytes as an
// io.ReadSeeker — the shape http.ServeContent wants — without copying
// them into a per-request buffer: a section over the memory mapping or
// the file, sized so Content-Length and Range requests fall out of
// Seek. Integrity still holds: the payload CRC is verified (once per
// frame, cached in a bitmap) before the section is handed out.
func (r *Reader) PayloadReader(i int) (*io.SectionReader, error) {
	e, err := r.access(i)
	if err != nil {
		return nil, err
	}
	if view, ok := r.payloadView(e); ok {
		if err := r.verifyOnce(i, e, view); err != nil {
			return nil, err
		}
		payloadReadsMmap.Inc()
		payloadBytesMmap.Add(uint64(e.Length))
	} else if r.isVerified(i) {
		crcSkipped.Inc()
		payloadReadsFile.Inc()
		payloadBytesFile.Add(uint64(e.Length))
	} else {
		// File-backed: one buffered verification pass per frame lifetime
		// (Payload counts it as this request's read), then every request
		// streams straight from the file.
		if _, err := r.Payload(i); err != nil {
			return nil, err
		}
		r.markVerified(i)
	}
	return io.NewSectionReader(r.r, e.Offset, e.Length), nil
}

// Frame reads and decodes frame i into its codec's compressed
// representation, on which compressed-space operations (codec.Ops) can
// run without full decompression. It decodes through codec.ViewDecoder
// where the codec has it, so the result may alias the bytes it was
// decoded from: the mapping itself on an mmap-backed reader — a goblaz
// v2 int8 F, or a zfp/sz payload, is then read where it lies on disk,
// with no copy — and otherwise a payload slice read for this call alone.
// A Compressed from an mmap-backed reader therefore follows the rule the
// raw bytes do (payloadView): it must not be used after Close.
func (r *Reader) Frame(i int) (codec.Compressed, error) {
	coder, err := r.FrameCoder(i)
	if err != nil {
		return nil, err
	}
	e, err := r.access(i)
	if err != nil {
		return nil, err
	}
	if view, ok := r.payloadView(e); ok {
		if err := r.verifyOnce(i, e, view); err != nil {
			return nil, err
		}
		payloadReadsMmap.Inc()
		payloadBytesMmap.Add(uint64(len(view)))
		return codec.TimedDecodeView(coder, r.FrameSpec(i), view)
	}
	payload, err := r.Payload(i)
	if err != nil {
		return nil, err
	}
	return codec.TimedDecodeView(coder, r.FrameSpec(i), payload)
}

// Decompress reads, decodes, and fully decompresses frame i with the
// codec that wrote it.
func (r *Reader) Decompress(i int) (*tensor.Tensor, error) {
	coder, err := r.FrameCoder(i)
	if err != nil {
		return nil, err
	}
	c, err := r.Frame(i)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	t, err := coder.Decompress(c)
	if err == nil {
		codec.ObserveOp(r.FrameSpec(i), "decompress", t.Len()*8, time.Since(start))
	}
	return t, err
}
