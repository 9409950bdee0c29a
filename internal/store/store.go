// Package store implements a durable, seekable container for a series of
// compressed frames — the paper's checkpoint-series use case made
// random-access on disk instead of resident in memory.
//
// A store file is self-describing and laid out for single-pass writing
// and O(1) frame lookup (all integers big-endian). The current format is
// version 2:
//
//	header   "GBZS" | version (1 byte) | spec length (uint16) |
//	         default codec spec
//	frames   codec-encoded payloads, back to back, in commit order
//	footer   spec table:   extra spec count (uint16), then per spec:
//	                           length (uint16) | spec string
//	         frame index:  one 30-byte entry per frame:
//	             label  int64
//	             offset uint64   absolute file offset of the payload
//	             length uint64   payload length in bytes
//	             crc32  uint32   IEEE CRC of the payload
//	             spec   uint16   spec id: 0 = the header's default spec,
//	                             k ≥ 1 = the k-th spec-table entry
//	trailer  footer offset (uint64) | frame count (uint64) |
//	         footer CRC32 (uint32) | "GBZE"          — 24 bytes, fixed
//
// An appendable store's file (internal/ingest) may end in log records
// after its last trailer; NewReader refuses it until the next commit,
// and RecoverCommittedSize finds the last commit.
//
// Version 1 files — the original single-spec format, identical except
// that the footer has no spec table and 28-byte entries without the spec
// id — remain readable forever; Reader handles both transparently and
// the testdata fixture pins the compatibility.
//
// The codec specs are registry spec strings (see internal/codec), so a
// Reader can reconstruct the exact codec that wrote each frame without
// out-of-band configuration. Most stores are codec-uniform and carry an
// empty spec table — their frames all use spec id 0 — while a
// mixed-codec store (written by WriteFrameWithSpec, e.g. from the
// adaptive assigner behind `goblaz tune`) interns each distinct spec
// once however many frames share it. Index owns that interning, its
// limits (65 535 extra specs, each at most 65 535 bytes) and the
// footer's encoding. Its read side, Inventory, is the frame inventory
// of every tier that serves frames: a Reader holds the one it parsed, a
// shard.Dataset the concatenation of its shards', and a
// cluster.Coordinator the one it discovered over the wire.
//
// The index lives in a footer rather than the header so a Writer never
// needs to seek — it can stream to a pipe or socket — while a Reader
// finds the index from the fixed-size trailer at the end of the file.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	headerMagic  = "GBZS"
	trailerMagic = "GBZE"
	version1     = 1
	version2     = 2
	// version is what Writer emits: the current format.
	version = version2

	entrySizeV1 = 8 + 8 + 8 + 4   // label, offset, length, crc32
	entrySize   = entrySizeV1 + 2 // + spec id
	trailerSize = 8 + 8 + 4 + 4   // footer offset, count, footer crc, magic
	maxSpecLen  = 0xFFFF          // spec strings are uint16-length-prefixed
	maxSpecs    = 0xFFFF          // spec ids are uint16
)

// ErrCRCMismatch reports a frame or footer whose stored checksum does not
// match its bytes; unwrap with errors.Is.
var ErrCRCMismatch = errors.New("store: CRC mismatch")

// FrameInfo is one footer index entry: where a frame's encoded payload
// lives and how to verify and decode it.
type FrameInfo struct {
	Label  int   // caller-assigned frame label (e.g. simulation time step)
	Offset int64 // absolute file offset of the payload
	Length int64 // payload length in bytes
	CRC32  uint32
	// SpecID names the frame's codec spec: 0 is the store's default
	// (header) spec, k ≥ 1 the k-th interned footer spec. Resolve it
	// with Inventory.FrameSpec.
	SpecID int
}

func headerSize(spec string) int64 {
	return int64(len(headerMagic) + 1 + 2 + len(spec))
}

func appendEntry(buf []byte, e FrameInfo) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Label))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Offset))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Length))
	buf = binary.BigEndian.AppendUint32(buf, e.CRC32)
	buf = binary.BigEndian.AppendUint16(buf, uint16(e.SpecID))
	return buf
}

// parseEntry decodes one index entry; size is entrySizeV1 or entrySize
// depending on the store version (v1 entries have no spec id and decode
// as spec 0, the default).
func parseEntry(buf []byte, size int) FrameInfo {
	e := FrameInfo{
		Label:  int(int64(binary.BigEndian.Uint64(buf))),
		Offset: int64(binary.BigEndian.Uint64(buf[8:])),
		Length: int64(binary.BigEndian.Uint64(buf[16:])),
		CRC32:  binary.BigEndian.Uint32(buf[24:]),
	}
	if size >= entrySize {
		e.SpecID = int(binary.BigEndian.Uint16(buf[28:]))
	}
	return e
}

func truncErr(what string) error {
	return fmt.Errorf("store: truncated %s", what)
}
