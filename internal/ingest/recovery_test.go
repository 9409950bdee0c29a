package ingest

// Crash-recovery matrix: simulate power loss at every byte offset of
// the store file's tail — the log of pending records torn at every
// length, and a commit's footer + trailer cut at every offset — then
// reopen and require that the committed prefix survives intact and the
// logged records either recover as a whole-record prefix or are cleanly
// discarded. Recovered frames are compared against a never-crashed
// control at 1e-9: the compressed bits are identical, so recovery must
// be exact.
//
// Recovery finds the last commit by a backward scan that trusts the
// last trailer whose footer CRC checks out. A payload that carries a
// forged footer with a valid CRC would be taken for a commit: possible
// while a commit is being written, and for the whole time between
// commits, since the file then ends in records. The matrix covers a
// payload carrying the trailer magic without a valid footer.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/query"
	"repro/internal/store"
)

// crashState is the disk image of a store that lost power with frames
// 0..7 committed and frames 8..9 durable only in the log after the
// commit, plus the control: what the same store holds after a clean
// recovery.
type crashState struct {
	base    int64             // bytes of the commit of frames 0..7
	log     []byte            // store file at the crash: base commit, then two records
	full    []byte            // store file after the control committed the records
	control map[int][]float64 // label → decoded frame data, control store
	mean    map[int]float64   // label → mean aggregate, control store
	payload map[int][]byte    // label → stored payload, control store
	cuts    []int64           // structural offsets inside full's tail
}

func buildCrashState(t *testing.T) *crashState {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "live.gbz")

	s, err := Create(path, Options{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]api.IngestFrame, 0, 8)
	for l := 0; l < 8; l++ {
		batch = append(batch, testFrame(l, 6, 8))
	}
	if _, err := s.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	cs := &crashState{control: map[int][]float64{}, mean: map[int]float64{}, payload: map[int][]byte{}}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cs.base = st.Size()
	// No commit trigger is configured, so these two stay logged only.
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(8, 6, 8), testFrame(9, 6, 8)}); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if cs.log, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}

	// The control recovers cleanly: reopening commits the logged
	// records, and its decoded frames are the ground truth every
	// crashed-and-recovered store must reproduce.
	cpath := filepath.Join(t.TempDir(), "live.gbz")
	writeImage(t, cpath, cs.log)
	c, err := Open(cpath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mustFrames(t, c)); got != 10 {
		t.Fatalf("control recovered %d frames, want 10", got)
	}
	for l := 0; l < 10; l++ {
		fr, err := c.Frame(ctx, l)
		if err != nil {
			t.Fatalf("control frame %d: %v", l, err)
		}
		cs.control[l] = fr.Data
		st, err := c.Stats(ctx, l, []string{query.AggMean})
		if err != nil {
			t.Fatalf("control stats %d: %v", l, err)
		}
		cs.mean[l] = float64(st.Aggregates[query.AggMean])
		if cs.payload[l], err = c.Payload(ctx, l); err != nil {
			t.Fatalf("control payload %d: %v", l, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if cs.full, err = os.ReadFile(cpath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cs.full[:len(cs.log)], cs.log) {
		t.Fatal("the control's commit rewrote logged bytes")
	}

	// Structural offsets of the tail: each record's start and its
	// payload's start and end, the footer start, and the trailer start —
	// the places a crash interleaves with appends and the commit.
	r, err := store.Open(cpath)
	if err != nil {
		t.Fatal(err)
	}
	recStart := cs.base
	for _, e := range r.Frames() {
		if e.Offset >= cs.base {
			cs.cuts = append(cs.cuts, recStart, e.Offset, e.Offset+e.Length)
			recStart = e.Offset + e.Length
		}
	}
	cs.cuts = append(cs.cuts, int64(len(cs.log)), int64(len(cs.full))-24) // footer, trailer
	r.Close()
	return cs
}

func writeImage(t *testing.T, path string, image []byte) {
	t.Helper()
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustFrames(t *testing.T, s *Store) []api.FrameInfo {
	t.Helper()
	infos, err := s.Frames(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return infos
}

// cutPoints enumerates crash offsets in [from, to]: every byte when the
// span is small, otherwise a stride sample plus every structural offset
// and its ±1 neighbors (the exact boundaries are where off-by-one
// recovery bugs live).
func cutPoints(from, to int64, structural []int64) []int64 {
	stride := int64(1)
	if span := to - from; span > 768 {
		stride = span / 512
	}
	seen := map[int64]struct{}{to: {}}
	for k := from; k < to; k += stride {
		seen[k] = struct{}{}
	}
	for _, e := range structural {
		for _, d := range []int64{-1, 0, 1} {
			if p := e + d; p >= from && p <= to {
				seen[p] = struct{}{}
			}
		}
	}
	pts := make([]int64, 0, len(seen))
	for k := range seen {
		pts = append(pts, k)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// verifyAgainstControl checks every recovered frame and its mean
// aggregate against the control at 1e-9, that no frame is there twice,
// and that the committed prefix (labels 0..7) is fully present.
func verifyAgainstControl(t *testing.T, s *Store, cs *crashState, at string) map[int]bool {
	t.Helper()
	ctx := context.Background()
	present := map[int]bool{}
	for _, fi := range mustFrames(t, s) {
		if present[fi.Label] {
			t.Fatalf("%s: frame %d recovered twice", at, fi.Label)
		}
		present[fi.Label] = true
		want, ok := cs.control[fi.Label]
		if !ok {
			t.Fatalf("%s: recovered unknown label %d", at, fi.Label)
		}
		fr, err := s.Frame(ctx, fi.Label)
		if err != nil {
			t.Fatalf("%s: frame %d: %v", at, fi.Label, err)
		}
		if len(fr.Data) != len(want) {
			t.Fatalf("%s: frame %d holds %d values, control %d", at, fi.Label, len(fr.Data), len(want))
		}
		for i := range want {
			if d := math.Abs(fr.Data[i] - want[i]); d > 1e-9 {
				t.Fatalf("%s: frame %d value %d differs from control by %g", at, fi.Label, i, d)
			}
		}
		st, err := s.Stats(ctx, fi.Label, []string{query.AggMean})
		if err != nil {
			t.Fatalf("%s: stats %d: %v", at, fi.Label, err)
		}
		if d := math.Abs(float64(st.Aggregates[query.AggMean]) - cs.mean[fi.Label]); d > 1e-9 {
			t.Fatalf("%s: frame %d mean differs from control by %g", at, fi.Label, d)
		}
	}
	for l := 0; l < 8; l++ {
		if !present[l] {
			t.Fatalf("%s: committed frame %d lost", at, l)
		}
	}
	return present
}

// closeAsPlainStore closes a recovered store and requires the file to
// be a plain store again, holding the n frames recovery reported.
func closeAsPlainStore(t *testing.T, s *Store, path string, n int, at string) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("%s: close: %v", at, err)
	}
	r, err := store.OpenReaderMmap(path)
	if err != nil {
		t.Fatalf("%s: closed store does not open as a plain store: %v", at, err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Fatalf("%s: closed store holds %d frames, recovery reported %d", at, r.Len(), n)
	}
}

func TestCrashRecoveryTornWAL(t *testing.T) {
	// Power loss mid-append: the store file holds the base commit and is
	// cut at every offset of the two records logged after it. The
	// committed prefix must survive untouched; the log recovers a
	// whole-record prefix — frame 9 can never appear without frame 8 —
	// and torn bytes vanish.
	cs := buildCrashState(t)
	path := filepath.Join(t.TempDir(), "live.gbz")
	for _, k := range cutPoints(cs.base, int64(len(cs.log)), cs.cuts) {
		at := "log cut " + strconv.FormatInt(k, 10)
		writeImage(t, path, cs.log[:k])
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", at, err)
		}
		present := verifyAgainstControl(t, s, cs, at)
		if present[9] && !present[8] {
			t.Fatalf("%s: frame 9 recovered without frame 8", at)
		}
		if k == int64(len(cs.log)) && (!present[8] || !present[9]) {
			t.Fatalf("intact log did not recover both tail frames: %v", present)
		}
		closeAsPlainStore(t, s, path, len(present), at)
	}
}

func TestCrashRecoveryTornCommit(t *testing.T) {
	// Power loss mid-commit: the commit appends a footer and a trailer
	// after the records, which were durable before it began. Cutting the
	// file at every offset of that footer + trailer — and at the full
	// length, the commit durable — must always recover the full ten
	// frames: either the new commit stands, or recovery falls back to
	// the base commit and keeps both records.
	cs := buildCrashState(t)
	path := filepath.Join(t.TempDir(), "live.gbz")
	for _, k := range cutPoints(int64(len(cs.log)), int64(len(cs.full)), cs.cuts) {
		at := "commit cut " + strconv.FormatInt(k, 10)
		writeImage(t, path, cs.full[:k])
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", at, err)
		}
		present := verifyAgainstControl(t, s, cs, at)
		if len(present) != 10 {
			t.Fatalf("%s: recovered %d frames, want 10", at, len(present))
		}
		closeAsPlainStore(t, s, path, len(present), at)
	}
}

func TestCrashRecoveryTrailerMagicInPayload(t *testing.T) {
	// A logged payload that ends in the trailer magic — here a copy of
	// the base commit's own trailer, whose footer CRC cannot match at
	// that position — must not stop the backward scan: recovery still
	// lands on the real commit and keeps every record after it.
	cs := buildCrashState(t)
	forged := walRecord{label: 10, payload: cs.log[cs.base-24 : cs.base]}
	if string(forged.payload[20:]) != "GBZE" {
		t.Fatalf("base commit does not end in the trailer magic: %q", forged.payload[20:])
	}
	path := filepath.Join(t.TempDir(), "live.gbz")
	writeImage(t, path, appendWALRecord(append([]byte(nil), cs.log...), forged))
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got := len(mustFrames(t, s)); got != 11 {
		t.Fatalf("recovered %d frames, want the base 8, the two logged and the forged one", got)
	}
	for l := 0; l <= 10; l++ {
		want := cs.payload[l]
		if l == 10 {
			want = forged.payload
		}
		if got, err := s.Payload(ctx, l); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d payload = %x, %v; want %x", l, got, err, want)
		}
	}
	closeAsPlainStore(t, s, path, 11, "forged trailer")
}

func TestCrashRecoveryDropsDuplicateRecords(t *testing.T) {
	// A logged record whose label is committed, or that repeats an
	// earlier record, is no frame anyone was promised: recovery drops
	// and counts it and keeps the first copy. With nothing left to keep,
	// the file is cut back to its commit.
	cs := buildCrashState(t)
	rec8, _, err := parseWALRecord(cs.log[cs.base:])
	if err != nil || rec8.label != 8 {
		t.Fatalf("first logged record: label %d, %v", rec8.label, err)
	}
	committed := walRecord{label: 3, payload: rec8.payload}
	path := filepath.Join(t.TempDir(), "live.gbz")
	for _, tc := range []struct {
		name   string
		tail   []walRecord
		frames int
	}{
		{"committed label", []walRecord{committed}, 8},
		{"committed and repeated labels", []walRecord{committed, rec8, rec8}, 9},
	} {
		image := append([]byte(nil), cs.log[:cs.base]...)
		for _, rec := range tc.tail {
			image = appendWALRecord(image, rec)
		}
		writeImage(t, path, image)
		discarded := discardedTotal.Value()
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		if present := verifyAgainstControl(t, s, cs, tc.name); len(present) != tc.frames {
			t.Fatalf("%s: recovered %d frames, want %d", tc.name, len(present), tc.frames)
		}
		if got, want := discardedTotal.Value()-discarded, uint64(len(tc.tail)-(tc.frames-8)); got != want {
			t.Fatalf("%s: %d records counted as discarded, want %d", tc.name, got, want)
		}
		closeAsPlainStore(t, s, path, tc.frames, tc.name)
	}
}

// TestIngestQueryHammer runs concurrent producers against concurrent
// readers with aggressive commit and compaction triggers, so view
// swaps, WAL appends, and store rewrites all interleave under -race.
func TestIngestQueryHammer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.gbz")
	s, err := Create(path, Options{
		Spec:           testSpec,
		CommitFrames:   16,
		CommitInterval: 2 * time.Millisecond,
		CompactBytes:   256,
		CacheBytes:     1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fsyncs0, batches0 := walFsyncSeconds.Count(), batchesTotal.Value()

	const producers, perProducer = 4, 24
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; {
				n := 1 + i%3
				if i+n > perProducer {
					n = perProducer - i
				}
				batch := make([]api.IngestFrame, 0, n)
				for j := 0; j < n; j++ {
					batch = append(batch, testFrame(int(next.Add(1)-1), 6, 8))
				}
				if _, err := s.Ingest(ctx, batch); err != nil {
					errs <- err
					return
				}
				i += n
			}
		}()
	}

	done := make(chan struct{})
	var readErr atomic.Value
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				infos, err := s.Frames(ctx)
				if err != nil {
					readErr.Store(err)
					return
				}
				if len(infos) == 0 {
					continue
				}
				label := infos[rng.Intn(len(infos))].Label
				switch rng.Intn(3) {
				case 0:
					_, err = s.Frame(ctx, label)
				case 1:
					_, err = s.Stats(ctx, label, []string{query.AggMean, query.AggMax})
				case 2:
					_, err = s.Query(ctx, &query.Request{
						Select:     query.Selector{Labels: strconv.Itoa(label)},
						Aggregates: []string{query.AggMean},
					})
				}
				if err != nil {
					readErr.Store(err)
					return
				}
			}
		}(int64(r))
	}

	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("producer: %v", err)
	}
	if err := readErr.Load(); err != nil {
		t.Fatalf("reader: %v", err)
	}
	// Every acknowledged batch paid exactly one timed WAL fsync.
	fsyncs, batches := walFsyncSeconds.Count()-fsyncs0, batchesTotal.Value()-batches0
	if batches == 0 || fsyncs != batches {
		t.Errorf("goblaz_ingest_wal_fsync_seconds observed %d fsyncs for %d acknowledged batches", fsyncs, batches)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(mustFrames(t, s)); got != producers*perProducer {
		t.Fatalf("hammer committed %d frames, want %d", got, producers*perProducer)
	}
	// Spot-check content survived the churn (lossy codec tolerance).
	fr, err := s.Frame(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testFrame(0, 6, 8)
	for i := range want.Data {
		if d := math.Abs(fr.Data[i] - want.Data[i]); d > 1e-3 {
			t.Fatalf("frame 0 value %d off by %g after hammer", i, d)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
