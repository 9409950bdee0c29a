package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"

	"repro/internal/codec"
)

// Inventory is the read side of a frame index: the spec table (the
// default spec first), the frames in commit order and the label →
// position map. Every tier that serves frames reads its frames through
// one: a Reader holds the one it parsed, a shard.Dataset the
// concatenation of its shards', and a cluster.Coordinator the one it
// discovered over the wire. An Inventory has no mutating method, so it
// is safe for concurrent use.
type Inventory struct {
	specs  []string // specs[0] = default (header), 1.. = footer table
	frames []FrameInfo
	labels map[int]int // label → frame position
}

// Index is an Inventory that grows: the one place that interns specs
// under the format's limits, refuses a duplicate label and encodes the
// footer. A Writer builds one, an appendable store (internal/ingest)
// grows a Clone of the committed one, and the dataset and coordinator
// build one and then keep only its Inventory. Mutating methods are not
// safe for concurrent use.
type Index struct {
	Inventory
	specIDs map[string]int // canonical spec → id; built by the first SpecID
}

// NewIndex returns an empty index whose default spec is spec.
func NewIndex(spec string) (Index, error) {
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
	return Index{Inventory: Inventory{specs: []string{spec}, labels: map[int]int{}}, specIDs: map[string]int{canon: 0}}, nil
}

// Clone returns a growable copy of the inventory: the Index shares no
// memory with it, so growing the copy never shows through the original.
func (x *Inventory) Clone() Index {
	return Index{Inventory: Inventory{
		specs: slices.Clone(x.specs), frames: slices.Clone(x.frames), labels: maps.Clone(x.labels),
	}}
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

// Extend appends part's frames after x's, as if they had been added
// one by one: part's whole spec table is interned first, in order, and
// each frame keeps its offsets and CRC under the id its spec has in x.
// On error x may already hold some of part's specs and frames.
func (x *Index) Extend(part *Inventory) error {
	ids := make([]int, len(part.specs))
	for k, spec := range part.specs {
		id, err := x.SpecID(spec)
		if err != nil {
			return err
		}
		ids[k] = id
	}
	for _, e := range part.frames {
		e.SpecID = ids[e.SpecID]
		if err := x.Add(e); err != nil {
			return err
		}
	}
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
func (x *Inventory) Spec() string { return x.specs[0] }

// Specs returns every codec spec: the default first, then the footer
// table in id order. A codec-uniform store returns a one-element slice.
func (x *Inventory) Specs() []string {
	return append([]string(nil), x.specs...)
}

// NumSpecs returns len(Specs()) without the copy.
func (x *Inventory) NumSpecs() int { return len(x.specs) }

// FrameSpec returns the codec spec of frame i. For every frame of a
// version-1 (or uniform version-2) store this is Spec().
func (x *Inventory) FrameSpec(i int) string {
	return x.specs[x.frames[i].SpecID]
}

// Len returns the number of frames.
func (x *Inventory) Len() int { return len(x.frames) }

// Info returns the index entry of frame i.
func (x *Inventory) Info(i int) FrameInfo { return x.frames[i] }

// Frames returns a copy of the frame index, in commit order.
func (x *Inventory) Frames() []FrameInfo {
	return append([]FrameInfo(nil), x.frames...)
}

// IndexOf returns the position of the frame with the given label.
func (x *Inventory) IndexOf(label int) (int, bool) {
	i, ok := x.labels[label]
	return i, ok
}
