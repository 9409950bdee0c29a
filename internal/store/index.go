package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/codec"
)

// Index is a store's inventory: the spec table (the default spec
// first), the frames in commit order and the label → position map. It
// is the one place that interns specs under the format's limits,
// refuses a duplicate label and encodes the footer. A Reader holds the
// index it parsed (and only reads it), a Writer builds one, and an
// appendable store (internal/ingest) grows the one it opened with.
// Mutating methods are not safe for concurrent use.
type Index struct {
	specs   []string       // specs[0] = default (header), 1.. = footer table
	specIDs map[string]int // canonical spec → id; built by the first SpecID
	frames  []FrameInfo
	labels  map[int]int // label → frame position
}

// newIndex returns an empty index whose default spec is spec.
func newIndex(spec string) (Index, error) {
	if spec == "" {
		return Index{}, fmt.Errorf("store: empty codec spec")
	}
	if len(spec) > maxSpecLen {
		return Index{}, fmt.Errorf("store: codec spec %d bytes long, max %d", len(spec), maxSpecLen)
	}
	canon, err := codec.Canonical(spec)
	if err != nil {
		return Index{}, fmt.Errorf("store: default spec: %w", err)
	}
	return Index{specs: []string{spec}, specIDs: map[string]int{canon: 0}, labels: map[int]int{}}, nil
}

// SpecID returns spec's id, interning it when the table lacks it. ""
// is the default (id 0), and specs that differ only in parameter order
// share an id (codec.Canonical). It refuses a spec longer than 65 535
// bytes and a 65 536th extra spec, and then leaves the table as it was.
func (x *Index) SpecID(spec string) (int, error) {
	if spec == "" {
		return 0, nil
	}
	canon, err := codec.Canonical(spec)
	if err != nil {
		return 0, err
	}
	if x.specIDs == nil {
		ids := make(map[string]int, len(x.specs))
		for id := len(x.specs) - 1; id >= 0; id-- { // the first of equal specs wins
			c, err := codec.Canonical(x.specs[id])
			if err != nil {
				return 0, fmt.Errorf("store: spec table entry %d: %w", id, err)
			}
			ids[c] = id
		}
		x.specIDs = ids
	}
	if id, ok := x.specIDs[canon]; ok {
		return id, nil
	}
	if len(spec) > maxSpecLen {
		return 0, fmt.Errorf("store: codec spec %d bytes long, max %d", len(spec), maxSpecLen)
	}
	if len(x.specs) > maxSpecs {
		return 0, fmt.Errorf("store: too many distinct codec specs (max %d)", maxSpecs)
	}
	x.specIDs[canon] = len(x.specs)
	x.specs = append(x.specs, spec)
	return len(x.specs) - 1, nil
}

// Add appends frame e. It refuses a label the index already holds and
// a spec id the table lacks.
func (x *Index) Add(e FrameInfo) error {
	if e.SpecID < 0 || e.SpecID >= len(x.specs) {
		return fmt.Errorf("store: frame %d names spec id %d, spec table has %d entries",
			len(x.frames), e.SpecID, len(x.specs)-1)
	}
	if _, dup := x.labels[e.Label]; dup {
		return fmt.Errorf("store: duplicate frame label %d", e.Label)
	}
	x.labels[e.Label] = len(x.frames)
	x.frames = append(x.frames, e)
	return nil
}

// Truncate keeps the first frames frames and the first specs specs
// (the default counts), undoing every Add and SpecID since Len and
// NumSpecs returned those counts.
func (x *Index) Truncate(frames, specs int) {
	for _, e := range x.frames[frames:] {
		delete(x.labels, e.Label)
	}
	x.frames = x.frames[:frames]
	for _, spec := range x.specs[specs:] {
		canon, _ := codec.Canonical(spec) // it canonicalized when interned
		delete(x.specIDs, canon)
	}
	x.specs = x.specs[:specs]
}

// AppendFooter appends the version-2 footer (spec table, frame index)
// and trailer to buf, for a store whose data region ends at footerOff.
func (x *Index) AppendFooter(buf []byte, footerOff int64) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(x.specs)-1))
	for _, spec := range x.specs[1:] {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(spec)))
		buf = append(buf, spec...)
	}
	for _, e := range x.frames {
		buf = appendEntry(buf, e)
	}
	footerCRC := crc32.ChecksumIEEE(buf[start:])
	buf = binary.BigEndian.AppendUint64(buf, uint64(footerOff))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(x.frames)))
	buf = binary.BigEndian.AppendUint32(buf, footerCRC)
	return append(buf, trailerMagic...)
}

// Spec returns the default codec spec, the header's.
func (x *Index) Spec() string { return x.specs[0] }

// Specs returns every codec spec: the default first, then the footer
// table in id order. A codec-uniform store returns a one-element slice.
func (x *Index) Specs() []string {
	return append([]string(nil), x.specs...)
}

// NumSpecs returns len(Specs()) without the copy.
func (x *Index) NumSpecs() int { return len(x.specs) }

// FrameSpec returns the codec spec of frame i. For every frame of a
// version-1 (or uniform version-2) store this is Spec().
func (x *Index) FrameSpec(i int) string {
	return x.specs[x.frames[i].SpecID]
}

// Len returns the number of frames.
func (x *Index) Len() int { return len(x.frames) }

// Info returns the index entry of frame i.
func (x *Index) Info(i int) FrameInfo { return x.frames[i] }

// Frames returns a copy of the frame index, in commit order.
func (x *Index) Frames() []FrameInfo {
	return append([]FrameInfo(nil), x.frames...)
}

// IndexOf returns the position of the frame with the given label.
func (x *Index) IndexOf(label int) (int, bool) {
	i, ok := x.labels[label]
	return i, ok
}
