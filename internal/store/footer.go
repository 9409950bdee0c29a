package store

import (
	"bytes"
	"fmt"
	"io"
)

// RecoverCommittedSize finds the largest prefix of a possibly
// crash-torn store image that parses as a complete store: the commit
// procedure of an appendable store only ever appends (log records, then
// a new footer and trailer) after the last durable commit, so a crash at
// any byte offset leaves the previous commit's bytes intact — just no
// longer at EOF. The scan walks backward from size looking for trailer
// magic and validates each candidate by fully parsing the prefix it
// would terminate (trailer fields, footer CRC, frame bounds), so a
// payload that happens to contain the magic bytes cannot be mistaken
// for a commit. It returns the committed prefix length and its parsed
// Reader; an image with no valid commit at all returns an error.
func RecoverCommittedSize(r io.ReaderAt, size int64) (int64, *Reader, error) {
	// A valid store is at least a minimal header + empty footer + trailer.
	minSize := headerSize("x") + 2 + trailerSize
	const chunk = 64 << 10
	magic := []byte(trailerMagic)
	// Candidate ends are positions where the magic's last byte sits at
	// end-1. Chunks overlap by len(magic)-1 bytes so a magic spanning a
	// chunk boundary is still seen.
	hi := size
	for hi >= minSize {
		lo := hi - chunk
		if lo < 0 {
			lo = 0
		}
		buf := make([]byte, hi-lo)
		if _, err := r.ReadAt(buf, lo); err != nil {
			return 0, nil, fmt.Errorf("store: recovery scan read at %d: %w", lo, err)
		}
		for at := len(buf); at >= len(magic); {
			idx := bytes.LastIndex(buf[:at], magic)
			if idx < 0 {
				break
			}
			end := lo + int64(idx) + int64(len(magic))
			if end >= minSize {
				if rd, err := NewReader(r, end); err == nil {
					return end, rd, nil
				}
			}
			at = idx + len(magic) - 1
		}
		if lo == 0 {
			break
		}
		hi = lo + int64(len(magic)) - 1
	}
	return 0, nil, fmt.Errorf("store: no valid commit found in %d bytes", size)
}
