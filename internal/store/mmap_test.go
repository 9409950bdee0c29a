package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// writeStoreFile materializes a buildStore image on disk.
func writeStoreFile(t *testing.T, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.gbz")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapMatchesReadAt is the mmap-vs-ReadAt differential: the two
// open paths must agree on every observable — index, raw payload bytes,
// CRC verdicts, section-reader streams, and decompressed frames.
func TestMmapMatchesReadAt(t *testing.T) {
	for _, spec := range []string{"goblaz:block=4x4,float=float64,index=int16", "zfp:rate=16"} {
		path := writeStoreFile(t, buildStore(t, spec, 5))
		rf, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rf.Close()
		rm, err := OpenReaderMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rm.Close()
		if rm.Mapped() != MmapSupported {
			t.Fatalf("Mapped() = %v, platform support says %v", rm.Mapped(), MmapSupported)
		}
		if rf.Spec() != rm.Spec() || rf.Len() != rm.Len() || rf.FooterCRC() != rm.FooterCRC() {
			t.Fatalf("headers differ: (%q, %d, %08x) file vs (%q, %d, %08x) mmap",
				rf.Spec(), rf.Len(), rf.FooterCRC(), rm.Spec(), rm.Len(), rm.FooterCRC())
		}
		for i := 0; i < rf.Len(); i++ {
			if rf.Info(i) != rm.Info(i) {
				t.Fatalf("frame %d index entry differs: %+v vs %+v", i, rf.Info(i), rm.Info(i))
			}
			pf, err := rf.Payload(i)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := rm.Payload(i)
			if err != nil {
				t.Fatal(err)
			}
			if string(pf) != string(pm) {
				t.Fatalf("frame %d payload bytes differ", i)
			}
			// The section-reader serving path must stream the same bytes.
			sec, err := rm.PayloadReader(i)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := io.ReadAll(sec)
			if err != nil {
				t.Fatal(err)
			}
			if string(streamed) != string(pf) {
				t.Fatalf("frame %d section reader bytes differ", i)
			}
			tf, err := rf.Decompress(i)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := rm.Decompress(i)
			if err != nil {
				t.Fatal(err)
			}
			if !tf.SameShape(tm) || tf.MaxAbsDiff(tm) != 0 {
				t.Fatalf("frame %d decompressed tensors differ", i)
			}
		}
	}
}

// TestMmapDetectsCorruption flips a payload byte on disk and checks
// both open paths reject the frame with ErrCRCMismatch — the verify-
// once bitmap must not let a corrupt frame through on any path.
func TestMmapDetectsCorruption(t *testing.T) {
	blob := buildStore(t, "zfp:rate=16", 2)
	r0, err := NewReader(readerAtOf(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	e := r0.Info(1)
	blob[e.Offset+e.Length/2] ^= 0xFF
	path := writeStoreFile(t, blob)
	for name, open := range map[string]func(string) (*Reader, error){"readat": Open, "mmap": OpenReaderMmap} {
		r, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := r.Payload(0); err != nil {
			t.Errorf("%s: intact frame 0: %v", name, err)
		}
		if _, err := r.Payload(1); !errors.Is(err, ErrCRCMismatch) {
			t.Errorf("%s: Payload(1) = %v, want ErrCRCMismatch", name, err)
		}
		if _, err := r.PayloadReader(1); !errors.Is(err, ErrCRCMismatch) {
			t.Errorf("%s: PayloadReader(1) = %v, want ErrCRCMismatch", name, err)
		}
		if _, err := r.Frame(1); !errors.Is(err, ErrCRCMismatch) {
			t.Errorf("%s: Frame(1) = %v, want ErrCRCMismatch", name, err)
		}
		r.Close()
	}
}

// TestCloseThenAccess: every access after Close must fail with ErrClosed
// — critically for mmap, where touching an unmapped page would fault
// instead of erroring.
func TestCloseThenAccess(t *testing.T) {
	path := writeStoreFile(t, buildStore(t, "zfp:rate=16", 2))
	for name, open := range map[string]func(string) (*Reader, error){"readat": Open, "mmap": OpenReaderMmap} {
		r, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := r.Payload(0); err != nil {
			t.Fatalf("%s: pre-close read: %v", name, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: second close: %v", name, err)
		}
		if _, err := r.Payload(0); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Payload after close = %v, want ErrClosed", name, err)
		}
		if _, err := r.PayloadReader(1); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: PayloadReader after close = %v, want ErrClosed", name, err)
		}
		if _, err := r.Frame(0); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Frame after close = %v, want ErrClosed", name, err)
		}
		if _, err := r.Decompress(0); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Decompress after close = %v, want ErrClosed", name, err)
		}
		// The index stays readable — only payload access needs the file.
		if r.Len() != 2 || r.Info(0).Length <= 0 {
			t.Errorf("%s: index unreadable after close", name)
		}
	}
}

// openFDs counts this process's open file descriptors (linux only).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestOpenErrorPathsCloseFile is the descriptor-leak regression: Open
// and OpenReaderMmap on corrupt files — bad magic, bad version,
// truncated trailer, corrupt footer CRC — must close the handle (and
// release the mapping) on every parse-failure path.
func TestOpenErrorPathsCloseFile(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting uses /proc/self/fd")
	}
	good := buildStore(t, "zfp:rate=16", 2)

	corrupt := map[string][]byte{}
	badMagic := append([]byte(nil), good...)
	copy(badMagic, "NOPE")
	corrupt["bad magic"] = badMagic
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 0xFF
	corrupt["bad version"] = badVersion
	corrupt["truncated trailer"] = good[:len(good)-trailerSize/2]
	badFooter := append([]byte(nil), good...)
	badFooter[len(badFooter)-trailerSize-1] ^= 0xFF // flip a footer byte → footer CRC mismatch
	corrupt["corrupt footer"] = badFooter
	corrupt["empty"] = nil

	dir := t.TempDir()
	paths := map[string]string{}
	for name, blob := range corrupt {
		p := filepath.Join(dir, name+".gbz")
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}

	for openName, open := range map[string]func(string) (*Reader, error){"Open": Open, "OpenReaderMmap": OpenReaderMmap} {
		before := openFDs(t)
		for name, p := range paths {
			for i := 0; i < 10; i++ {
				if r, err := open(p); err == nil {
					r.Close()
					t.Fatalf("%s(%s): no error for corrupt store", openName, name)
				}
			}
		}
		if after := openFDs(t); after > before {
			t.Errorf("%s leaked %d file descriptors across corrupt-store opens", openName, after-before)
		}
	}
}

// readerAtOf adapts a byte slice for NewReader in tests.
func readerAtOf(b []byte) io.ReaderAt { return bytesReaderAt(b) }

type bytesReaderAt []byte

func (b bytesReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// TestFailedDecodeIsNotObservedAsDecode stores one good frame and one
// whose payload is garbage with a valid CRC: the store serves it, the
// codec refuses it. On both open paths the refused frame must not be
// counted — or timed, or sized — as a decode in goblaz_codec_*.
func TestFailedDecodeIsNotObservedAsDecode(t *testing.T) {
	// A spec no other test in this package decodes, so the cells are ours.
	coder := mustCoder(t, "goblaz:block=2x2,float=float64,index=int32")
	c, err := coder.Compress(testFrame(1))
	if err != nil {
		t.Fatal(err)
	}
	good, err := coder.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, good); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("not a goblaz stream")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := writeStoreFile(t, buf.Bytes())

	labels := "{op=decode,spec=" + coder.Spec() + "}"
	read := func() (total, count, bytes float64) {
		flat := obs.Default.Snapshot().Flatten()
		return flat["goblaz_codec_op_total"+labels],
			flat["goblaz_codec_op_seconds"+labels+"_count"],
			flat["goblaz_codec_op_bytes_total"+labels]
	}
	for name, open := range map[string]func(string) (*Reader, error){"readat": Open, "mmap": OpenReaderMmap} {
		r, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total0, count0, bytes0 := read()
		if _, err := r.Frame(0); err != nil {
			t.Fatalf("%s: good frame: %v", name, err)
		}
		total1, count1, bytes1 := read()
		if total1 != total0+1 || count1 != count0+1 || bytes1 != bytes0+float64(len(good)) {
			t.Errorf("%s: a good decode moved (total, timings, bytes) by (%g, %g, %g), want (1, 1, %d)",
				name, total1-total0, count1-count0, bytes1-bytes0, len(good))
		}
		if _, err := r.Frame(1); err == nil {
			t.Fatalf("%s: garbage frame decoded", name)
		}
		if total2, count2, bytes2 := read(); total2 != total1 || count2 != count1 || bytes2 != bytes1 {
			t.Errorf("%s: a failed decode moved (total, timings, bytes) by (%g, %g, %g), want none",
				name, total2-total1, count2-count1, bytes2-bytes1)
		}
		r.Close()
	}
}
