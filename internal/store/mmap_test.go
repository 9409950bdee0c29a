package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/baseline/zfpsim"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tensor"
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

// TestFilePayloadReaderCountsOnce checks the read counters of a
// positioned-read store's PayloadReader: each call is one read of
// Length bytes, the first one included (it hashes the payload once to
// verify it), and the CRC is performed on the first call and skipped on
// the second.
func TestFilePayloadReaderCountsOnce(t *testing.T) {
	r, err := Open(writeStoreFile(t, buildStore(t, "zfp:rate=16", 2)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	length := uint64(r.Info(1).Length)
	for call, want := range [][2]uint64{{1, 0}, {0, 1}} { // CRC performed, skipped
		reads, bytes := payloadReadsFile.Value(), payloadBytesFile.Value()
		performed, skipped := crcPerformed.Value(), crcSkipped.Value()
		if _, err := r.PayloadReader(1); err != nil {
			t.Fatal(err)
		}
		if got := payloadReadsFile.Value() - reads; got != 1 {
			t.Errorf("call %d: %d file reads counted, want 1", call+1, got)
		}
		if got := payloadBytesFile.Value() - bytes; got != length {
			t.Errorf("call %d: %d file bytes counted, want %d", call+1, got, length)
		}
		got := [2]uint64{crcPerformed.Value() - performed, crcSkipped.Value() - skipped}
		if got != want {
			t.Errorf("call %d: CRC performed/skipped moved by %v, want %v", call+1, got, want)
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

// TestMappedFramesAreReadOnlyViews guards Frame's zero-copy decode. A
// Frame of an mmap-backed reader may alias the PROT_READ mapping, so an
// operation that wrote into its input would fault the process here
// (under -race, checkptr also vets the int8 view). Every operation the
// codecs expose runs on Frame(i) and must give, bit for bit, what it
// gives on a heap copy of the payload; the arrays it returns must be
// writable, and writing into them must not change a later Frame(i)'s
// answers.
func TestMappedFramesAreReadOnlyViews(t *testing.T) {
	if !MmapSupported {
		t.Skip("no mmap on this platform")
	}
	for _, spec := range []string{
		"goblaz:block=4x4,float=float32,index=int8",
		"goblaz:block=4x4,float=float64,index=int16",
		"zfp:rate=16",
	} {
		t.Run(spec, func(t *testing.T) {
			r, err := OpenReaderMmap(writeStoreFile(t, buildStore(t, spec, 3)))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			coder := mustCoder(t, spec)
			mapped := func(i int) codec.Compressed {
				c, err := r.Frame(i)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			heap := func(i int) codec.Compressed {
				payload, err := r.Payload(i) // a copy
				if err != nil {
					t.Fatal(err)
				}
				c, err := coder.Decode(payload)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			if z, ok := mapped(0).(*zfpsim.Compressed); ok {
				e := r.Info(0)
				if end := &r.mem[e.Offset+e.Length-1]; &z.Payload[len(z.Payload)-1] != end {
					t.Fatal("zfp Frame copied its payload instead of viewing the mapping")
				}
			}
			for i := 0; i < r.Len(); i++ {
				j := (i + 1) % r.Len()
				want := frameAnswers(t, coder, heap(i), heap(j))
				got := frameAnswers(t, coder, mapped(i), mapped(j))
				again := frameAnswers(t, coder, mapped(i), mapped(j))
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) ||
						math.Float64bits(again[k]) != math.Float64bits(want[k]) {
						t.Fatalf("frame %d answer %d: mapped %v, again %v, heap %v", i, k, got[k], again[k], want[k])
					}
				}
			}
		})
	}
}

// frameAnswers runs every operation coder exposes on a and b — Arith, Ops,
// RegionReader, Extrema and, for goblaz, core's Table I set — and returns
// each answer in a fixed order: scalars as they are, arrays element by
// element (compressed ones decompressed). It then scribbles over every
// array it got back.
func frameAnswers(t *testing.T, coder codec.Coder, a, b codec.Compressed) []float64 {
	t.Helper()
	var out []float64
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	scalar := func(v float64, err error) {
		must(err)
		out = append(out, v)
	}
	array := func(x *tensor.Tensor, err error) {
		must(err)
		out = append(out, x.Data()...)
		x.Fill(math.NaN())
	}
	compressed := func(c codec.Compressed, err error) {
		must(err)
		array(coder.Decompress(c))
		if ca, ok := c.(*core.CompressedArray); ok {
			for k := range ca.N {
				ca.N[k] = math.NaN()
			}
			ca.Shape[0], ca.Blocks[0] = -1, -1
		}
	}
	array(coder.Decompress(a))
	if ar, ok := coder.(codec.Arith); ok {
		compressed(ar.Add(a, b))
		compressed(ar.MulScalar(a, -2))
	}
	if ops, ok := coder.(codec.Ops); ok {
		scalar(ops.Mean(a))
		scalar(ops.Variance(a))
		scalar(ops.L2Norm(a))
		scalar(ops.Dot(a, b))
		scalar(ops.MSE(a, b))
		scalar(ops.PSNR(a, b, 1))
		scalar(ops.CosineSimilarity(a, b))
	}
	if rr, ok := coder.(codec.RegionReader); ok {
		array(rr.DecompressRegion(a, []int{3, 5}, []int{9, 7}))
		array(rr.DecompressRegion(a, []int{7, 2}, []int{1, 1}))
	}
	if ext, ok := coder.(codec.Extrema); ok {
		lo, hi, err := ext.Extrema(a)
		scalar(lo, err)
		scalar(hi, nil)
	}
	if ca, ok := a.(*core.CompressedArray); ok {
		c, err := core.NewCompressor(ca.Settings)
		must(err)
		cb := b.(*core.CompressedArray)
		compressed(c.Negate(ca))
		compressed(c.MulScalar(ca, -2))
		compressed(c.Add(ca, cb))
		compressed(c.Subtract(ca, cb))
		compressed(c.AddScalar(ca, 0.5))
		scalar(c.Covariance(ca, cb))
		scalar(c.StructuralSimilarity(ca, cb, core.DefaultSSIMOptions()))
		array(c.BlockMeans(ca))
		array(c.BlockVariances(ca))
		array(c.BlockCovariances(ca, cb))
		scalar(c.WassersteinDistance(ca, cb, 2))
		array(c.Decompress(ca))
		array(c.DecompressRegion(ca, []int{0, 9}, []int{16, 7}))
		array(c.DecompressRegion(ca, []int{15, 15}, []int{1, 1}))
	}
	return out
}

// TestMappedFrameDoesNotCopyIndices: Frame of an mmap'd int8 goblaz store
// allocates N and the header, not the index array or the masks — N
// widened to float64 for the 1024 blocks of a 256×256 frame in 8×8
// blocks, plus half a kilobyte.
func TestMappedFrameDoesNotCopyIndices(t *testing.T) {
	if !MmapSupported {
		t.Skip("no mmap on this platform")
	}
	coder := mustCoder(t, "goblaz:block=8x8,float=float32,index=int8")
	frame := tensor.New(256, 256)
	for i := range frame.Data() {
		frame.Data()[i] = math.Sin(float64(i) / 300)
	}
	c, err := coder.Compress(frame)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := coder.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReaderMmap(writeStoreFile(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Frame(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := res.AllocedBytesPerOp(), int64(8*1024+512); got >= limit {
		t.Errorf("Frame allocates %d B for a %d B payload, want < %d", got, len(payload), limit)
	}
}
