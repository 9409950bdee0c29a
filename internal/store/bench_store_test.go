package store

// The payload-serving benchmark pair behind BENCH_6: the copy baseline
// materializes each payload with Payload (one fresh allocation per
// request, the pre-mmap serving path), while the mmap path hands
// http.ServeContent-style consumers a section reader over the mapping
// and never copies the payload at all. Run with -benchmem; the mmap
// path must hold a ≥1.5x allocs/op advantage.

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// benchStorePath packs n synthetic rows×cols frames into a store file.
func benchStorePath(b *testing.B, n, rows, cols int) string {
	b.Helper()
	coder, err := codec.Lookup("goblaz:block=8x8,float=float32,index=int16")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, coder.Spec())
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < n; k++ {
		f := tensor.New(rows, cols)
		for i := range f.Data() {
			f.Data()[i] = math.Sin(float64(i)/9 + float64(k))
		}
		c, err := coder.Compress(f)
		if err != nil {
			b.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Append(k, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.gbz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

func payloadBytes(b *testing.B, r *Reader) int64 {
	b.Helper()
	var total int64
	for i := 0; i < r.Len(); i++ {
		total += r.Info(i).Length
	}
	return total / int64(r.Len())
}

func BenchmarkPayloadServeCopy(b *testing.B) {
	r, err := Open(benchStorePath(b, 8, 256, 256))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(payloadBytes(b, r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := r.Payload(i % r.Len())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, bytes.NewReader(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPayloadServeMmap(b *testing.B) {
	r, err := OpenReaderMmap(benchStorePath(b, 8, 256, 256))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(payloadBytes(b, r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := r.PayloadReader(i % r.Len())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, rs); err != nil {
			b.Fatal(err)
		}
	}
}
