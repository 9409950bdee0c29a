package ingest

// Crash-recovery matrix: simulate power loss at every byte offset of
// both files an appendable store owns — the WAL torn at every length,
// and the data file cut at every offset a mid-commit crash can leave —
// then reopen and require that the committed prefix survives intact
// and the WAL tail either replays or is cleanly discarded. Recovered
// frames are compared against a never-crashed control at 1e-9: the
// compressed bits are identical, so recovery must be exact.

import (
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
// 0..7 committed and frames 8..9 durable only in the WAL, plus the
// control: what the same store holds after a clean recovery.
type crashState struct {
	store   []byte            // data file at the crash (base commit only)
	wal     []byte            // WAL at the crash (frames 8 and 9)
	full    []byte            // data file after the control committed the WAL
	control map[int][]float64 // label → decoded frame data, control store
	mean    map[int]float64   // label → mean aggregate, control store
	cuts    []int64           // structural offsets inside full's tail commit
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
	// No commit trigger is configured, so these two stay WAL-only.
	if _, err := s.Ingest(ctx, []api.IngestFrame{testFrame(8, 6, 8), testFrame(9, 6, 8)}); err != nil {
		t.Fatal(err)
	}
	s.Abort()

	cs := &crashState{control: map[int][]float64{}, mean: map[int]float64{}}
	if cs.store, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if cs.wal, err = os.ReadFile(path + ".wal"); err != nil {
		t.Fatal(err)
	}

	// The control recovers cleanly: reopening replays and commits the
	// WAL tail, and its decoded frames are the ground truth every
	// crashed-and-recovered store must reproduce.
	cdir := t.TempDir()
	cpath := filepath.Join(cdir, "live.gbz")
	writeImage(t, cpath, cs.store, cs.wal)
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
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if cs.full, err = os.ReadFile(cpath); err != nil {
		t.Fatal(err)
	}

	// Structural offsets of the tail commit: each appended payload's
	// start and end, the footer start, and the trailer start — the
	// places a crash interleaves with the commit sequence.
	r, err := store.Open(cpath)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(len(cs.store))
	for _, e := range r.Frames() {
		if e.Offset >= base {
			cs.cuts = append(cs.cuts, e.Offset, e.Offset+e.Length)
		}
	}
	cs.cuts = append(cs.cuts, int64(len(cs.full))-24) // trailer start
	r.Close()
	return cs
}

func writeImage(t *testing.T, path string, storeBytes, walBytes []byte) {
	t.Helper()
	if err := os.WriteFile(path, storeBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".wal", walBytes, 0o644); err != nil {
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
// aggregate against the control at 1e-9, and that the committed prefix
// (labels 0..7) is fully present.
func verifyAgainstControl(t *testing.T, s *Store, cs *crashState, at string) map[int]bool {
	t.Helper()
	ctx := context.Background()
	present := map[int]bool{}
	for _, fi := range mustFrames(t, s) {
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

func TestCrashRecoveryTornWAL(t *testing.T) {
	// Power loss mid-WAL-append: the data file holds the base commit,
	// the WAL is cut at every possible length. The committed prefix must
	// survive untouched; the WAL replays a whole-record prefix — frame 9
	// can never appear without frame 8 — and torn bytes vanish.
	cs := buildCrashState(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.gbz")
	for _, wk := range cutPoints(0, int64(len(cs.wal)), nil) {
		writeImage(t, path, cs.store, cs.wal[:wk])
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("wal[:%d]: open: %v", wk, err)
		}
		present := verifyAgainstControl(t, s, cs, "wal cut "+strconv.FormatInt(wk, 10))
		if present[9] && !present[8] {
			t.Fatalf("wal[:%d]: frame 9 replayed without frame 8", wk)
		}
		if wk == int64(len(cs.wal)) && (!present[8] || !present[9]) {
			t.Fatalf("intact WAL did not replay both tail frames: %v", present)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("wal[:%d]: close: %v", wk, err)
		}
	}
}

func TestCrashRecoveryTornCommit(t *testing.T) {
	// Power loss mid-commit: the commit sequence appends payloads, a
	// footer, and a trailer strictly after the base image, and truncates
	// the WAL only after the trailer is durable. Cutting the data file
	// at every offset of that window — mid-frame, between frames,
	// mid-footer, mid-trailer, and exactly complete (footer durable, WAL
	// truncate lost) — with the WAL intact must always recover the full
	// ten frames: either the new commit stands, or recovery falls back
	// to the base commit and replays the WAL.
	cs := buildCrashState(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.gbz")
	for _, k := range cutPoints(int64(len(cs.store)), int64(len(cs.full)), cs.cuts) {
		writeImage(t, path, cs.full[:k], cs.wal)
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("full[:%d]: open: %v", k, err)
		}
		present := verifyAgainstControl(t, s, cs, "commit cut "+strconv.FormatInt(k, 10))
		if len(present) != 10 {
			t.Fatalf("full[:%d]: recovered %d frames, want 10", k, len(present))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("full[:%d]: close: %v", k, err)
		}
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
