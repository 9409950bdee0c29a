package ingest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/store"
	"repro/internal/tensor"
)

// maxExtraSpecs is the store format's spec-table limit: spec ids are
// uint16 and id 0 is the header's default.
const maxExtraSpecs = 0xFFFF

const tooManySpecs = "too many distinct codec specs"

// encodeAlone compresses and encodes f under spec (the store default
// when empty) with the codec alone, returning the payload and the spec
// a store.Writer records it under.
func encodeAlone(t *testing.T, f api.IngestFrame) (payload []byte, spec string) {
	t.Helper()
	coder, err := codec.Lookup(testSpec)
	if f.Spec != "" {
		coder, err = codec.Lookup(f.Spec)
	}
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec != "" {
		spec = coder.Spec()
	}
	c, err := coder.Compress(tensor.FromSlice(f.Data, f.Shape...))
	if err != nil {
		t.Fatal(err)
	}
	payload, err = coder.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	return payload, spec
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestIngestRefusesSpecPastLimits(t *testing.T) {
	// A batch whose spec would overflow the footer's spec table is the
	// caller's error, refused whole before its records reach the log;
	// accepted, it would fail every later commit and leave a store that
	// no longer opens.
	path := filepath.Join(t.TempDir(), "full.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	zfp := testFrame(1, 8, 8)
	zfp.Spec = "zfp:rate=16"
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 8, 8), zfp}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// One free slot: the batch's first new spec takes it, its second
	// overflows, and the refusal must hand the slot back.
	if err := s.FillSpecs(maxExtraSpecs - s.NumSpecs()); err != nil {
		t.Fatal(err)
	}
	size, specs := fileSize(t, path), s.NumSpecs()
	if specs != maxExtraSpecs {
		t.Fatalf("filled table holds %d specs", specs)
	}
	fits, novel := testFrame(4, 8, 8), testFrame(3, 8, 8)
	fits.Spec, novel.Spec = "zfp:rate=12", "zfp:rate=8"
	_, err = s.Ingest(ctx, []api.IngestFrame{testFrame(2, 8, 8), fits, novel})
	if e := api.FromError(err); e == nil || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, tooManySpecs) {
		t.Fatalf("batch past the spec limit = %v, want bad_request naming the limit", err)
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("refused batch grew the file from %d to %d bytes", size, got)
	}
	if s.NumSpecs() != specs || s.Pending() != 0 {
		t.Fatalf("refused batch left %d specs (want %d), %d pending", s.NumSpecs(), specs, s.Pending())
	}
	// Its labels are free again, a spec the table holds still lands, and
	// the slot handed back takes the next new spec.
	known := testFrame(3, 8, 8)
	known.Spec = zfp.Spec
	if res, err := s.Ingest(ctx, []api.IngestFrame{testFrame(2, 8, 8), known, fits}); err != nil || res.Accepted != 3 {
		t.Fatalf("retry = %+v, %v", res, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatalf("store does not reopen: %v", err)
	}
	defer s2.Close()
	if got := len(mustFrames(t, s2)); got != 5 {
		t.Fatalf("reopened store holds %d frames, want 5", got)
	}
	if fr, err := s2.Frame(ctx, fits.Label); err != nil || len(fr.Data) != 64 {
		t.Fatalf("frame under the reused slot: %v", err)
	}
}

func TestRecoveryRefusesSpecPastLimits(t *testing.T) {
	// A logged record whose spec no longer fits the table cannot be
	// committed; Open must say so rather than drop an acknowledged frame.
	path := filepath.Join(t.TempDir(), "full.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.FillSpecs(maxExtraSpecs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 8, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f := testFrame(1, 8, 8)
	f.Spec = "zfp:rate=16"
	payload, spec := encodeAlone(t, f)
	rec := appendWALRecord(nil, walRecord{label: f.Label, spec: spec, payload: payload})
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)

	if s2, err := Open(path, Options{Spec: testSpec}); err == nil || !strings.Contains(err.Error(), tooManySpecs) {
		if err == nil {
			s2.Close()
		}
		t.Fatalf("Open with an uncommittable logged record = %v, want an error naming the limit", err)
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("failed Open changed the file from %d to %d bytes", size, got)
	}
}

func TestFailedCommitTruncatesIndex(t *testing.T) {
	// A commit whose footer write fails leaves the index as the last
	// commit had it, so the retry indexes each pending frame once.
	path := filepath.Join(t.TempDir(), "retry.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	f := testFrame(1, 8, 8)
	f.Spec = "zfp:rate=16"
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 8, 8), f}); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rw := s.SwapFile(ro)
	if err := s.Commit(ctx); err == nil {
		t.Fatal("commit through a read-only handle succeeded")
	}
	ro.Close()
	s.SwapFile(rw)
	if err := s.Commit(ctx); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	if got := len(mustFrames(t, s)); got != 2 || s.Pending() != 0 {
		t.Fatalf("after the retry: %d frames, %d pending; want 2, 0", got, s.Pending())
	}
}

func TestCompactMatchesWriter(t *testing.T) {
	// One store format, one writer of it: a compacted ingest store is
	// byte for byte what store.Writer makes of the same (label, payload,
	// spec) sequence.
	path := filepath.Join(t.TempDir(), "live.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	alt := []string{"", "zfp:rate=16", "goblaz:block=8x8,float=float32,index=int16"}
	var all []api.IngestFrame
	for commit, specs := range [][]int{{0, 1, 0}, {2, 2}, {0, 1, 2, 0}} {
		var batch []api.IngestFrame
		for _, k := range specs {
			f := testFrame(len(all)+len(batch), 12, 8)
			f.Spec = alt[k]
			batch = append(batch, f)
		}
		if _, err := s.Ingest(ctx, batch); err != nil {
			t.Fatalf("commit %d: %v", commit, err)
		}
		if err := s.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	def, err := codec.Lookup(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	w, err := store.NewWriter(&want, def.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range all {
		payload, spec := encodeAlone(t, f)
		if err := w.WriteFrameWithSpec(f.Label, payload, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("compacted store (%d bytes) differs from store.Writer's (%d bytes)", len(got), want.Len())
	}
}
