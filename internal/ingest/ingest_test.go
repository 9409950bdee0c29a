package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/api/conformance"
	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/query"
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

func TestCompactCommitsPending(t *testing.T) {
	// Compaction commits what is logged first, so the rewrite carries
	// every acknowledged frame and leaves nothing after its trailer; the
	// directory then holds the store file alone.
	dir := t.TempDir()
	path := filepath.Join(dir, "compact.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 8, 8), testFrame(1, 8, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(2, 8, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.DeadBytes() != 0 {
		t.Fatalf("after Compact: %d pending, %d dead bytes", s.Pending(), s.DeadBytes())
	}
	if got := len(mustFrames(t, s)); got != 3 {
		t.Fatalf("after Compact: %d frames, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != "compact.gbz" {
		t.Fatalf("directory holds %v, want the store file alone", names)
	}
	r, err := store.OpenReaderMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("closed store holds %d frames, want 3", r.Len())
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
	_, lookupErr := codec.Lookup(bad.Spec)
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
		coder, err := codec.Lookup(spec)
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
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	batch := []api.IngestFrame{testFrame(0, 16, 16), testFrame(1, 16, 16), testFrame(2, 16, 16)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Ingest(ctx, batch); api.CodeOf(err) != api.CodeCanceled {
		t.Fatalf("Ingest under a cancelled context = %v (%s), want %s", err, api.CodeOf(err), api.CodeCanceled)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != before.Size() {
		t.Fatalf("cancelled batch grew the store file: %v, %v (was %d bytes)", st, err, before.Size())
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
	// entry sizes, silently losing acknowledged frames.
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
	// view swap that follows (here: the path moved away, so the fresh
	// reader cannot open it, while the open handle still commits) must
	// not be reported as a failed commit. Queries stay on the previous
	// view until a later commit retries the swap.
	path := filepath.Join(t.TempDir(), "cleanup.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 8, 8)}); err != nil {
		t.Fatal(err)
	}
	moved := path + ".moved"
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	failures := cleanupFailures.Value()
	if err := s.Commit(ctx); err != nil {
		t.Fatalf("Commit reported failure for a landed commit: %v", err)
	}
	if got := cleanupFailures.Value() - failures; got != 1 {
		t.Fatalf("view swap failures counted %d, want 1", got)
	}
	if got := mustFrames(t, s); len(got) != 0 {
		t.Fatalf("queries left the previous view after a failed swap: %d frames", len(got))
	}
	if err := os.Rename(moved, path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(1, 8, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := mustFrames(t, s); len(got) != 2 {
		t.Fatalf("after the retried swap: %d frames, want 2", len(got))
	}
	if fr, err := s.Frame(ctx, 0); err != nil || len(fr.Data) != 64 {
		t.Fatalf("committed frame not queryable: %v", err)
	}
}

func TestOpenRemovesEmptyLegacyWAL(t *testing.T) {
	// A clean Close under the older two-file layout left "<store>.wal"
	// empty: Open removes it, and the store holds only its own file.
	path := filepath.Join(t.TempDir(), "old.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".wal", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(path + ".wal"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty legacy WAL still there: %v", err)
	}
}

func TestOpenRefusesNonEmptyLegacyWAL(t *testing.T) {
	// A non-empty "<store>.wal" holds acknowledged frames the store file
	// does not: Open must refuse, name the file and leave it alone.
	path := filepath.Join(t.TempDir(), "old.gbz")
	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := appendWALRecord(nil, walRecord{label: 3, payload: []byte{1, 2, 3}})
	if err := os.WriteFile(path+".wal", rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path, Options{}); err == nil {
		s.Close()
		t.Fatal("Open accepted a store whose legacy WAL holds frames")
	} else if !strings.Contains(err.Error(), path+".wal") || !strings.Contains(err.Error(), "older release") {
		t.Fatalf("Open error = %v, want one naming %s and the older release", err, path+".wal")
	}
	if got, err := os.ReadFile(path + ".wal"); err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("legacy WAL changed: %x, %v", got, err)
	}
}

// cacheCounts reads the process-wide decoded-frame cache counters.
func cacheCounts() (hits, misses float64) {
	for _, m := range obs.Default.Snapshot().Metrics {
		for _, smp := range m.Samples {
			switch m.Name {
			case "goblaz_query_cache_hits_total":
				hits += smp.Value
			case "goblaz_query_cache_misses_total":
				misses += smp.Value
			}
		}
	}
	return hits, misses
}

// TestCacheHitsAcrossGenerations: every read generation keys its frames
// alike, so a frame decoded before a commit or a compaction is a cache
// hit after it. The codec has no compressed-space mean, so every Stats
// decodes through the cache.
func TestCacheHitsAcrossGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gbz")
	s, err := Create(path, Options{Spec: "sz:mode=curvefit,tol=1e-4", CommitFrames: 1, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var first float64
	for step, next := range []func() error{
		func() error { _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(0, 16, 16)}); return err },
		func() error { _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(1, 16, 16)}); return err },
		s.Compact,
	} {
		if err := next(); err != nil {
			t.Fatal(err)
		}
		hits, misses := cacheCounts()
		for k := 0; k < 2; k++ {
			res, err := s.Stats(ctx, 0, []string{query.AggMean})
			if err != nil {
				t.Fatal(err)
			}
			mean := float64(res.Aggregates[query.AggMean])
			if step == 0 && k == 0 {
				first = mean
			} else if math.Float64bits(mean) != math.Float64bits(first) {
				t.Fatalf("step %d: mean %v, first answer %v", step, mean, first)
			}
		}
		h, m := cacheCounts()
		wantHits, wantMisses := 2.0, 0.0
		if step == 0 {
			wantHits, wantMisses = 1, 1
		}
		if h-hits != wantHits || m-misses != wantMisses {
			t.Errorf("step %d: cache hits +%v, misses +%v; want +%v, +%v", step, h-hits, m-misses, wantHits, wantMisses)
		}
	}
}
