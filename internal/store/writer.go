package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/codec"
)

// Writer appends frames to a store stream in a single forward pass: the
// header goes out at construction, each Append/WriteFrameWithSpec
// streams one payload, and Close emits the footer (spec table + index)
// and trailer. The underlying writer never needs to seek, so a Writer
// can target a file, a pipe, or a socket.
//
// Writer is not safe for concurrent use; when fed from a
// series.Pipeline (see Sink / SinkAssigned), the pipeline's single
// committer goroutine provides the required serialization — frames then
// compress in parallel but land in submission order.
type Writer struct {
	w      io.Writer
	off    int64
	idx    Index
	err    error // sticky: first write failure poisons the Writer
	closed bool
}

// syncer is the subset of *os.File Close uses to make frame bytes
// durable before the footer commits them.
type syncer interface{ Sync() error }

// NewWriter writes the store header for the given default codec spec
// and returns a Writer appending to w. The spec should come from
// codec.Coder.Spec() so a Reader can reconstruct the codec. Frames
// whose spec differs from the default go through WriteFrameWithSpec.
func NewWriter(w io.Writer, spec string) (*Writer, error) {
	idx, err := NewIndex(spec)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, headerSize(spec))
	hdr = append(hdr, headerMagic...)
	hdr = append(hdr, version)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(spec)))
	hdr = append(hdr, spec...)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("store: writing header: %w", err)
	}
	return &Writer{w: w, off: int64(len(hdr)), idx: idx}, nil
}

// Append streams one encoded frame payload under the store's default
// spec and records its index entry. Labels must be unique within a
// store: the index is also a by-label lookup table.
func (w *Writer) Append(label int, payload []byte) error {
	return w.WriteFrameWithSpec(label, payload, "")
}

// WriteFrameWithSpec streams one encoded frame payload written by the
// codec the given spec reconstructs. An empty spec means the store's
// default. Distinct specs are interned: the footer stores one string
// per spec however many frames share it, and specs that differ only in
// parameter order deduplicate (codec.Canonical). This is the
// mixed-codec entry point — the adaptive assigner commits each frame
// under the codec that won its trial pass.
func (w *Writer) WriteFrameWithSpec(label int, payload []byte, spec string) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("store: append after Close")
	}
	if _, dup := w.idx.IndexOf(label); dup {
		return fmt.Errorf("store: duplicate frame label %d", label)
	}
	id, err := w.idx.SpecID(spec)
	if err != nil {
		return fmt.Errorf("store: frame %d (label %d) spec: %w", w.idx.Len(), label, err)
	}
	e := FrameInfo{Label: label, Offset: w.off, Length: int64(len(payload)), CRC32: crc32.ChecksumIEEE(payload), SpecID: id}
	if _, err := w.w.Write(payload); err != nil {
		w.err = fmt.Errorf("store: writing frame %d (label %d): %w", w.idx.Len(), label, err)
		return w.err
	}
	w.off += e.Length
	return w.idx.Add(e) // the label is new: checked above
}

// Close writes the footer (spec table + frame index) and trailer. It
// does not close the underlying writer. A store closed with zero frames
// is valid and opens as an empty Reader.
//
// When the underlying writer is a file, Close fsyncs it before emitting
// the footer: the trailer is the store's commit record, and committing
// it over unsynced frame bytes would let a crash present a valid
// trailer whose payloads never reached the disk. A second fsync after
// the trailer makes the commit itself durable.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if s, ok := w.w.(syncer); ok {
		if err := s.Sync(); err != nil {
			w.err = fmt.Errorf("store: syncing frames before footer commit: %w", err)
			return w.err
		}
	}
	buf := w.idx.AppendFooter(make([]byte, 0, 2+w.idx.Len()*entrySize+trailerSize), w.off)
	if _, err := w.w.Write(buf); err != nil {
		w.err = fmt.Errorf("store: writing footer: %w", err)
		return w.err
	}
	if s, ok := w.w.(syncer); ok {
		if err := s.Sync(); err != nil {
			w.err = fmt.Errorf("store: syncing footer: %w", err)
			return w.err
		}
	}
	return nil
}

// Sink adapts the Writer into a uniform pipeline sink: each committed
// frame is serialized with coder and appended under the store's default
// spec. The store's spec must match the coder's so the file decodes
// with the codec that wrote it; the bytes then equal SinkAssigned's
// under a constant assignment of coder, the path shard.WriteStore takes.
//
//	w, _ := store.NewWriter(f, coder.Spec())
//	p := series.NewCodecPipeline(coder, w.Sink(coder), workers)
func (w *Writer) Sink(coder codec.Coder) func(label int, c codec.Compressed) error {
	return func(label int, c codec.Compressed) error {
		start := time.Now()
		payload, err := coder.Encode(c)
		if err != nil {
			return err
		}
		codec.ObserveOp(coder.Spec(), "encode", len(payload), time.Since(start))
		return w.Append(label, payload)
	}
}

// SinkAssigned adapts the Writer into a series.NewAssignedPipeline sink:
// each committed frame is serialized with the coder the assigner chose
// for it and recorded under that coder's spec, so one store commits
// frames from many codecs. A frame under the default spec interns
// nothing: it is recorded exactly as Append records it.
//
//	w, _ := store.NewWriter(f, defaultCoder.Spec())
//	p := series.NewAssignedPipeline(assign, w.SinkAssigned(), workers)
func (w *Writer) SinkAssigned() func(label int, coder codec.Coder, c codec.Compressed) error {
	return func(label int, coder codec.Coder, c codec.Compressed) error {
		start := time.Now()
		payload, err := coder.Encode(c)
		if err != nil {
			return err
		}
		codec.ObserveOp(coder.Spec(), "encode", len(payload), time.Since(start))
		return w.WriteFrameWithSpec(label, payload, coder.Spec())
	}
}
