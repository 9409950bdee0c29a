package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/series"
	"repro/internal/tensor"
)

func testFrame(label int) *tensor.Tensor {
	t := tensor.New(16, 16)
	for i := range t.Data() {
		t.Data()[i] = math.Sin(float64(i)/7) + float64(label)*0.25
	}
	return t
}

func mustCoder(t *testing.T, spec string) codec.Coder {
	t.Helper()
	coder, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	return coder
}

// buildStore writes n frames with labels 10, 11, ... through a Writer
// into a byte buffer.
func buildStore(t *testing.T, spec string, n int) []byte {
	t.Helper()
	coder := mustCoder(t, spec)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c, err := coder.Compress(testFrame(10 + i))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(10+i, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripEveryCodec(t *testing.T) {
	for _, name := range codec.List() {
		t.Run(name, func(t *testing.T) {
			coder := mustCoder(t, name)
			const n = 4
			blob := buildStore(t, name, n)
			r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			if r.Spec() != coder.Spec() {
				t.Errorf("Spec = %q, want %q", r.Spec(), coder.Spec())
			}
			if r.Len() != n {
				t.Fatalf("Len = %d, want %d", r.Len(), n)
			}
			for i := 0; i < n; i++ {
				label := 10 + i
				if r.Info(i).Label != label {
					t.Fatalf("frame %d label = %d, want %d", i, r.Info(i).Label, label)
				}
				// A frame read through the store must match the same frame
				// compressed and decompressed directly, bit for bit.
				got, err := r.Decompress(i)
				if err != nil {
					t.Fatal(err)
				}
				c, err := coder.Compress(testFrame(label))
				if err != nil {
					t.Fatal(err)
				}
				payload, err := coder.Encode(c)
				if err != nil {
					t.Fatal(err)
				}
				back, err := coder.Decode(payload)
				if err != nil {
					t.Fatal(err)
				}
				want, err := coder.Decompress(back)
				if err != nil {
					t.Fatal(err)
				}
				if got.MaxAbsDiff(want) != 0 {
					t.Errorf("frame %d: store path differs from direct path", i)
				}
				// And by label.
				if j, ok := r.IndexOf(label); !ok || j != i {
					t.Errorf("frame %d: IndexOf(%d) = %d, %v", i, label, j, ok)
				}
			}
		})
	}
}

func TestPipelineToStore(t *testing.T) {
	// The intended production wiring: frames compress in parallel through
	// a series pipeline and land in the store in submission order.
	coder := mustCoder(t, "goblaz:block=8x8,float=float64")
	dir := t.TempDir()
	path := filepath.Join(dir, "series.gbz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	p := series.NewCodecPipeline(coder, w.Sink(coder), 4)
	for i := 0; i < n; i++ {
		p.Submit(i, testFrame(i))
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		if r.Info(i).Label != i {
			t.Fatalf("pipeline broke ordering: frame %d has label %d", i, r.Info(i).Label)
		}
	}
	// Concurrent readers: decode every frame from many goroutines.
	var wg sync.WaitGroup
	errs := make(chan error, 4*n)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j, ok := r.IndexOf(i)
				if !ok {
					errs <- fmt.Errorf("no frame with label %d", i)
					return
				}
				got, err := r.Decompress(j)
				if err != nil {
					errs <- err
					return
				}
				c, _ := coder.Compress(testFrame(i))
				want, _ := coder.Decompress(c)
				if got.MaxAbsDiff(want) != 0 {
					errs <- errors.New("concurrent read returned wrong frame")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "goblaz")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("empty store Len = %d", r.Len())
	}
	if _, err := r.Payload(0); err == nil {
		t.Error("Payload(0) on empty store should fail")
	}
	if _, ok := r.IndexOf(0); ok {
		t.Error("IndexOf on empty store should find nothing")
	}
	if _, err := r.Decompress(0); err == nil {
		t.Error("Decompress(0) on empty store should fail")
	}
}

func TestTruncatedStore(t *testing.T) {
	blob := buildStore(t, "zfp:rate=16", 3)
	for _, cut := range []int{1, len(blob) / 2, len(blob) - 1, len(blob) - trailerSize, len(blob) - trailerSize - 5} {
		if cut >= len(blob) {
			continue
		}
		short := blob[:cut]
		if _, err := NewReader(bytes.NewReader(short), int64(len(short))); err == nil {
			t.Errorf("store truncated to %d of %d bytes should not open", cut, len(blob))
		}
	}
}

func TestFrameCRCMismatch(t *testing.T) {
	blob := buildStore(t, "zfp:rate=16", 2)
	r0, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside frame 1's payload.
	corrupt := append([]byte(nil), blob...)
	corrupt[r0.Info(1).Offset+2] ^= 0xFF
	r, err := NewReader(bytes.NewReader(corrupt), int64(len(corrupt)))
	if err != nil {
		t.Fatal(err) // index is intact; corruption surfaces on access
	}
	if _, err := r.Payload(0); err != nil {
		t.Errorf("undamaged frame should read: %v", err)
	}
	_, err = r.Payload(1)
	if !errors.Is(err, ErrCRCMismatch) {
		t.Errorf("Payload(1) = %v, want ErrCRCMismatch", err)
	}
	if _, err := r.Decompress(1); !errors.Is(err, ErrCRCMismatch) {
		t.Errorf("Decompress(1) = %v, want ErrCRCMismatch", err)
	}
}

func TestFooterCRCMismatch(t *testing.T) {
	blob := buildStore(t, "zfp:rate=16", 2)
	corrupt := append([]byte(nil), blob...)
	// Flip a byte inside the footer (entries live between data and trailer).
	corrupt[len(corrupt)-trailerSize-3] ^= 0xFF
	if _, err := NewReader(bytes.NewReader(corrupt), int64(len(corrupt))); !errors.Is(err, ErrCRCMismatch) {
		t.Errorf("corrupted footer opened: %v", err)
	}
}

func TestWrongCodecDecode(t *testing.T) {
	// A store whose header claims goblaz but whose payload came from zfp:
	// decode must fail cleanly, not misinterpret bytes.
	zfp := mustCoder(t, "zfp:rate=16")
	c, err := zfp.Compress(testFrame(0))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := zfp.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "goblaz")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Frame(0); err == nil {
		t.Error("decoding a zfp payload with the goblaz codec should fail")
	}
}

func TestUnknownSpecFailsLazily(t *testing.T) {
	// Unknown codecs fail at first decode, not at open: inspect-style
	// tooling can still read the index.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "futurecodec:v=9")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, []byte("opaque")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Payload(0); err != nil {
		t.Errorf("raw payload should read without the codec: %v", err)
	}
	if _, err := r.Frame(0); err == nil {
		t.Error("Frame with unregistered codec should fail")
	}
}

func TestWriterRejectsMisuse(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, ""); err == nil {
		t.Error("empty spec should fail")
	}
	w, err := NewWriter(&buf, "goblaz")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(7, []byte("y")); err == nil {
		t.Error("duplicate label should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(8, []byte("z")); err == nil {
		t.Error("Append after Close should fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close should be a no-op: %v", err)
	}
}

func TestFooterEntryLengthOverflowRejected(t *testing.T) {
	// A footer entry whose length is near 2^63 must be rejected at open:
	// offset+length wraps negative, so the span check has to subtract.
	// The attacker controls the footer CRC, so recompute it after the
	// patch — the CRC is integrity, not authentication.
	blob := buildStore(t, "zfp:rate=16", 1)
	size := int64(len(blob))
	entriesOff := size - trailerSize - entrySize
	crafted := append([]byte(nil), blob...)
	e := parseEntry(crafted[entriesOff:], entrySize)
	e.Length = math.MaxInt64 - 10
	copy(crafted[entriesOff:], appendEntry(nil, e))
	footerOff := int64(binary.BigEndian.Uint64(crafted[size-trailerSize:]))
	footerCRC := crc32.ChecksumIEEE(crafted[footerOff : size-trailerSize])
	binary.BigEndian.PutUint32(crafted[size-8:], footerCRC)

	r, err := NewReader(bytes.NewReader(crafted), size)
	if err == nil {
		// Must not reach Payload and panic allocating 2^63 bytes.
		if _, perr := r.Payload(0); perr == nil {
			t.Fatal("crafted huge-length entry read successfully")
		}
		t.Fatal("crafted huge-length entry passed open-time validation")
	}
}

func TestNotAStore(t *testing.T) {
	for _, blob := range [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 100),
		append([]byte("GBZS"), bytes.Repeat([]byte{9}, 100)...), // good magic, bad version
	} {
		if _, err := NewReader(bytes.NewReader(blob), int64(len(blob))); err == nil {
			t.Errorf("%d-byte non-store opened", len(blob))
		}
	}
}
