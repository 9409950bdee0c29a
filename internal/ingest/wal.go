package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/store"
)

// The store file's tail is its write-ahead log: every accepted but
// uncommitted frame is a self-delimiting record appended after the
// last trailer,
//
//	length  uint32  // body length
//	crc32   uint32  // CRC32 (IEEE) of body
//	body:
//	  label    int64
//	  spec len uint16
//	  spec     bytes  // codec spec; empty = the store's default
//	  payload  bytes  // encoded (compressed) frame
//
// All integers are big-endian, matching the store format. Appends are
// fsynced before the ingest call returns — the log is the durability
// point of the 200 response. A commit writes only a footer after the
// records, whose entries point at the payloads inside them, so a frame
// is written once. Recovery accepts the longest prefix of intact
// records after the last commit: a record cut short by a crash, or
// whose CRC does not match (a torn in-place write), ends the log, and
// everything after it is discarded.

const walHeaderSize = 4 + 4 // length + crc32

// walRecord is one frame's log record.
type walRecord struct {
	label   int
	spec    string // "" = the store's default
	payload []byte
}

// encodedLen returns the record's full on-disk length.
func (r *walRecord) encodedLen() int {
	return walHeaderSize + 8 + 2 + len(r.spec) + len(r.payload)
}

// frameAt returns the index entry of the record written at file offset
// off, its spec id still 0: the payload is the record's last bytes.
func (r *walRecord) frameAt(off int64) store.FrameInfo {
	return store.FrameInfo{
		Label:  r.label,
		Offset: off + int64(r.encodedLen()-len(r.payload)),
		Length: int64(len(r.payload)),
		CRC32:  crc32.ChecksumIEEE(r.payload),
	}
}

// appendWALRecord appends the record's on-disk encoding to buf.
func appendWALRecord(buf []byte, r walRecord) []byte {
	body := 8 + 2 + len(r.spec) + len(r.payload)
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	at := len(buf) + 4 // body starts after the CRC word
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(r.label)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.spec)))
	buf = append(buf, r.spec...)
	buf = append(buf, r.payload...)
	binary.BigEndian.PutUint32(buf[at-4:], crc32.ChecksumIEEE(buf[at:]))
	return buf
}

// parseWALRecord decodes one record from the front of buf, returning
// the record, whose payload aliases buf, and the bytes consumed. An
// incomplete or corrupt record returns an error — recovery treats it
// as the end of the log.
func parseWALRecord(buf []byte) (walRecord, int, error) {
	if len(buf) < walHeaderSize {
		return walRecord{}, 0, errTornRecord
	}
	body := int(binary.BigEndian.Uint32(buf))
	sum := binary.BigEndian.Uint32(buf[4:])
	if body < 8+2 || len(buf) < walHeaderSize+body {
		return walRecord{}, 0, errTornRecord
	}
	blob := buf[walHeaderSize : walHeaderSize+body]
	if crc32.ChecksumIEEE(blob) != sum {
		return walRecord{}, 0, errTornRecord
	}
	label := int(int64(binary.BigEndian.Uint64(blob)))
	specLen := int(binary.BigEndian.Uint16(blob[8:]))
	if 8+2+specLen > body {
		return walRecord{}, 0, errTornRecord
	}
	rec := walRecord{
		label:   label,
		spec:    string(blob[10 : 10+specLen]),
		payload: blob[10+specLen:],
	}
	return rec, walHeaderSize + body, nil
}

var errTornRecord = errors.New("ingest: torn or corrupt log record")

// retireWAL deals with the "<store>.wal" file older releases kept
// beside the store. A clean Close left it empty: remove it. A non-empty
// one holds acknowledged frames the store file does not, so refuse to
// open rather than drop them.
func retireWAL(path string) error {
	st, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if st.Size() > 0 {
		return fmt.Errorf("ingest: %s holds %d bytes of frames logged by an older release; "+
			"open the store once with that release to commit them, then remove the file", path, st.Size())
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}
