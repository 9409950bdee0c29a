package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/api/conformance"
	"repro/internal/store"
	"repro/internal/tensor"
)

const testSpec = "goblaz:block=4x4,float=float64,index=int16"

func testFrame(label, rows, cols int) api.IngestFrame {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = math.Sin(float64(i)/7+float64(label)) + 0.3*float64(label)
	}
	return api.IngestFrame{Label: label, Shape: []int{rows, cols}, Data: data}
}

func TestIngestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gbz")
	s, err := Create(path, Options{Spec: testSpec, CommitFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// First batch stays pending (under the commit threshold) but is
	// immediately durable and counted.
	res, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 16, 16), testFrame(1, 16, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Committed || res.Pending != 2 || res.Frames != 0 {
		t.Fatalf("first batch result = %+v", res)
	}
	// Queries see only committed frames.
	if info, err := s.Spec(ctx); err != nil || info.Frames != 0 {
		t.Fatalf("Spec before commit = %+v, %v", info, err)
	}

	// Second batch crosses the threshold: everything commits.
	res, err = s.Ingest(ctx, []api.IngestFrame{testFrame(2, 16, 16), testFrame(3, 16, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.Pending != 0 || res.Frames != 4 {
		t.Fatalf("second batch result = %+v", res)
	}
	for label := 0; label < 4; label++ {
		fr, err := s.Frame(ctx, label)
		if err != nil {
			t.Fatalf("Frame(%d): %v", label, err)
		}
		want := testFrame(label, 16, 16)
		for i := range want.Data {
			if math.Abs(fr.Data[i]-want.Data[i]) > 1e-3 { // codec is lossy
				t.Fatalf("frame %d sample %d = %g, want ~%g", label, i, fr.Data[i], want.Data[i])
			}
		}
	}

	// Duplicate labels are rejected atomically, as a conflict (so a
	// client replaying an accepted batch can tell it from bad input).
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(3, 8, 8)}); api.CodeOf(err) != api.CodeConflict {
		t.Fatalf("duplicate label error = %v", err)
	}

	// A third partial batch survives Close (committed on the way out)…
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(4, 16, 16)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// …and the file on disk is a plain store any reader opens.
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 5 {
		t.Fatalf("reopened store has %d frames, want 5", r.Len())
	}

	// Reopen through ingest and keep appending.
	s2, err := Open(path, Options{CommitFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if res, err := s2.Ingest(ctx, []api.IngestFrame{testFrame(5, 16, 16)}); err != nil || !res.Committed || res.Frames != 6 {
		t.Fatalf("append after reopen = %+v, %v", res, err)
	}
}

func TestIngestPerFrameSpecAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.gbz")
	s, err := Create(path, Options{Spec: testSpec, CommitFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	alt := "goblaz:block=8x8,float=float32,index=int16"
	f := testFrame(0, 16, 16)
	f.Spec = alt
	for i, fr := range []api.IngestFrame{f, testFrame(1, 16, 16), testFrame(2, 16, 16)} {
		if _, err := s.Ingest(ctx, []api.IngestFrame{fr}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	// Three commits → two superseded footers.
	if s.DeadBytes() == 0 {
		t.Fatal("successive commits left no dead bytes?")
	}
	info, err := s.Spec(ctx)
	if err != nil || len(info.Specs) != 2 {
		t.Fatalf("Spec = %+v, %v (want 2 specs)", info, err)
	}
	before, err := s.Frame(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.DeadBytes() != 0 {
		t.Fatalf("DeadBytes after compact = %d", s.DeadBytes())
	}
	after, err := s.Frame(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("compaction changed frame 0 at %d: %g vs %g", i, before.Data[i], after.Data[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Specs()) < 2 || r.Len() != 3 {
		t.Fatalf("compacted store: specs=%v len=%d", r.Specs(), r.Len())
	}
}

func TestIngestBadSpecIsBadRequest(t *testing.T) {
	// A frame whose override spec names no codec fails the whole batch
	// before anything is compressed or reserved, with the codec
	// registry's message under the frame's position and label.
	s, err := Create(filepath.Join(t.TempDir(), "bad.gbz"), Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	good, bad := testFrame(4, 8, 8), testFrame(5, 8, 8)
	bad.Spec = "nosuchcodec"
	_, lookupErr := lookupCoder(bad.Spec)
	_, err = s.Ingest(ctx, []api.IngestFrame{good, bad})
	want := "frame 1 (label 5): " + lookupErr.Error()
	if e := api.FromError(err); e == nil || e.Code != api.CodeBadRequest || e.Message != want {
		t.Fatalf("Ingest = %v, want bad_request %q", err, want)
	}
	bad.Spec = "zfp:rate=16"
	if res, err := s.Ingest(ctx, []api.IngestFrame{good, bad}); err != nil || res.Accepted != 2 {
		t.Fatalf("retry with a valid spec = %+v, %v", res, err)
	}
}

func TestIngestBatchMatchesCodecAlone(t *testing.T) {
	// One batch, one frame per codec the package's tests ingest under
	// (plus one on the store default): Ingest compresses straight from
	// the caller's slices, so they must come back bit-identical, and
	// what the store serves must be exactly the codec's own round trip.
	path := filepath.Join(t.TempDir(), "batch.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	specs := []string{"", testSpec, "goblaz:block=8x8,float=float32,index=int16", conformance.MixedSpec}
	batch := make([]api.IngestFrame, len(specs))
	orig := make([][]float64, len(specs))
	for i, spec := range specs {
		batch[i] = testFrame(i, 16, 16)
		batch[i].Spec = spec
		orig[i] = append([]float64(nil), batch[i].Data...)
	}
	if _, err := s.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		for j, v := range batch[i].Data {
			if math.Float64bits(v) != math.Float64bits(orig[i][j]) {
				t.Fatalf("spec %q: Ingest changed the caller's sample %d: %g → %g", spec, j, orig[i][j], v)
			}
		}
		if spec == "" {
			spec = testSpec
		}
		coder, err := lookupCoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := coder.Compress(tensor.FromSlice(orig[i], 16, 16))
		if err != nil {
			t.Fatal(err)
		}
		want, err := coder.Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Frame(ctx, i)
		if err != nil {
			t.Fatalf("spec %q: Frame(%d): %v", spec, i, err)
		}
		for j, v := range want.Data() {
			if math.Float64bits(got.Data[j]) != math.Float64bits(v) {
				t.Fatalf("spec %q: stored sample %d = %g, codec alone gives %g", spec, j, got.Data[j], v)
			}
		}
	}
}

func TestIngestCancelledBatchLeavesNoTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := []api.IngestFrame{testFrame(0, 16, 16), testFrame(1, 16, 16), testFrame(2, 16, 16)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Ingest(ctx, batch); api.CodeOf(err) != api.CodeCanceled {
		t.Fatalf("Ingest under a cancelled context = %v (%s), want %s", err, api.CodeOf(err), api.CodeCanceled)
	}
	if st, err := os.Stat(path + ".wal"); err != nil || st.Size() != 0 {
		t.Fatalf("cancelled batch reached the WAL: %v, %v", st, err)
	}
	if s.Pending() != 0 {
		t.Fatalf("cancelled batch left %d frames pending", s.Pending())
	}
	// The reserved labels were released: the same batch is accepted now.
	res, err := s.Ingest(context.Background(), batch)
	if err != nil || res.Accepted != len(batch) {
		t.Fatalf("re-ingest after cancel = %+v, %v", res, err)
	}
}

// writeV1Image handcrafts a frameless version-1 store file — the
// pre-spec-table format the ingest path must refuse, since its commits
// would append v2 footers under a header byte that still says 1.
func writeV1Image(t *testing.T, path, spec string) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("GBZS")
	buf.WriteByte(1)
	var lb [2]byte
	binary.BigEndian.PutUint16(lb[:], uint16(len(spec)))
	buf.Write(lb[:])
	buf.WriteString(spec)
	footerOff := buf.Len() // zero frames: empty footer
	var tr [24]byte
	binary.BigEndian.PutUint64(tr[0:], uint64(footerOff))
	binary.BigEndian.PutUint64(tr[8:], 0)
	binary.BigEndian.PutUint32(tr[16:], crc32.ChecksumIEEE(nil))
	copy(tr[20:], "GBZE")
	buf.Write(tr[:])
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsV1Store(t *testing.T) {
	// Opening a v1 store must fail up front: if it succeeded, the first
	// commit would write a v2 footer the next reader parses with v1
	// entry sizes — after the WAL was already truncated — silently
	// losing acknowledged frames.
	path := filepath.Join(t.TempDir(), "old.gbz")
	writeV1Image(t, path, testSpec)
	if r, err := store.Open(path); err != nil || r.Version() != 1 {
		t.Fatalf("handcrafted v1 image does not read back as v1: %v", err)
	} else {
		r.Close()
	}
	if s, err := Open(path, Options{}); err == nil {
		s.Close()
		t.Fatal("Open accepted a version-1 store")
	} else if !strings.Contains(err.Error(), "version-1") {
		t.Fatalf("Open error = %v, want a version-1 rejection", err)
	}
}

func TestCommitCleanupFailureStillCommits(t *testing.T) {
	// Once the trailer fsync lands, the commit stands; a failure in the
	// cleanup that follows (here: the WAL truncate, forced by yanking
	// its fd) must not be reported as a failed commit — and the stale
	// WAL records must dedup away on the next open.
	path := filepath.Join(t.TempDir(), "cleanup.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 8, 8)}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.wal.f.Close() // wal.reset will now fail after the commit point
	s.mu.Unlock()
	if err := s.Commit(ctx); err != nil {
		t.Fatalf("Commit reported failure for a landed commit: %v", err)
	}
	if fr, err := s.Frame(ctx, 0); err != nil || len(fr.Data) != 64 {
		t.Fatalf("committed frame not queryable: %v", err)
	}
	s.Abort() // the wal handle is already dead; skip Close's error

	// The WAL still holds the committed record; reopen must drop it by
	// label instead of double-appending.
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Frames(ctx); err != nil || len(got) != 1 {
		t.Fatalf("after reopen: %d frames, %v (want 1)", len(got), err)
	}
	if s2.Pending() != 0 {
		t.Fatalf("stale WAL record replayed as pending: %d", s2.Pending())
	}
}
