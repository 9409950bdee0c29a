// Package ingest turns the append-once store into a crash-safe
// appendable one: frames stream in over an API, land durably in a
// write-ahead log beside the store file, and fold into the store under
// a fresh footer on a commit policy (every N frames, B bytes, or T
// seconds), while queries keep running against atomically swapped
// read views.
//
// # Durability model
//
// The store file's trailer is its commit record; everything a commit
// writes — frame payloads, then a new footer and trailer — is appended
// strictly after the previous trailer, so the bytes of the last commit
// are never overwritten. A crash at any byte offset therefore leaves a
// valid store prefix; reopening finds it by backward trailer scan
// (store.RecoverCommittedSize) and truncates the torn tail.
//
// Frames accepted between commits live in the WAL ("<store>.wal"),
// fsynced before the ingest call returns: a 200 means the batch
// survives a crash. On reopen the WAL's intact record prefix replays
// into the store (deduplicated by label, covering a crash between
// footer fsync and WAL truncate) and torn trailing bytes are
// discarded.
//
// Superseded footers remain as dead bytes inside the data region; a
// background compactor rewrites the store (temp file + rename, the
// pack idiom) once they pass a threshold.
//
// # Read views
//
// Queries never block on ingest. Each commit opens a fresh
// memory-mapped reader over the grown store and swaps it in as the
// current view; in-flight queries hold a reference to the view they
// started on, and a view's reader closes only when the last reference
// drops. All generations share one decoded-frame cache — readers have
// distinct cache identities, so stale entries age out via LRU rather
// than alias.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Options configures an appendable store.
type Options struct {
	// Spec is the store's default codec spec. Create requires it; Open
	// verifies it against the file header when set.
	Spec string
	// CommitFrames commits once this many frames are pending; ≤ 0
	// disables the frame-count trigger.
	CommitFrames int
	// CommitBytes commits once pending payloads reach this many bytes;
	// ≤ 0 disables the byte trigger.
	CommitBytes int64
	// CommitInterval commits pending frames at least this often; ≤ 0
	// disables the timer. With every trigger disabled, frames stay in
	// the WAL until Commit or Close.
	CommitInterval time.Duration
	// CompactBytes rewrites the store once superseded footers exceed
	// this many dead bytes; ≤ 0 disables auto-compaction (Compact
	// still works).
	CompactBytes int64
	// CacheBytes budgets the decoded-frame cache shared across view
	// generations; ≤ 0 disables caching.
	CacheBytes int64
}

// view is one read generation: a memory-mapped reader over a committed
// store image plus its query stack. Refcounted — the store holds one
// reference while the view is current, each in-flight query one more —
// so a commit can swap generations without closing a mapping a query
// is still decoding from.
type view struct {
	refs  atomic.Int64
	local *api.Local
}

func (v *view) acquire() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (v *view) release() {
	if v.refs.Add(-1) == 0 {
		v.local.Close()
	}
}

// Store is a crash-safe appendable frame store. All methods are safe
// for concurrent use; it implements api.Backend, api.Ingestor, and the
// payload capabilities, so the HTTP layer serves it like any other
// backend.
type Store struct {
	path    string
	walPath string
	opts    Options

	defaultCoder codec.Coder
	defaultCanon string
	cache        *query.Cache

	mu            sync.Mutex
	f             *os.File // data file, positioned writes only
	wal           *wal
	committedSize int64             // bytes of the current commit's image
	footerOff     int64             // where the current footer starts
	entries       []store.FrameInfo // committed index, commit order
	extraSpecs    []string          // interned non-default specs, ids 1..n
	specIDs       map[string]int    // canonical spec → id (0 = default)
	labels        map[int]struct{}  // committed + pending + reserved
	pending       []walRecord       // accepted, not yet under a footer
	pendingBytes  int64             // payload bytes in pending
	deadBytes     int64             // superseded footer bytes in the data region
	closed        bool

	cur  atomic.Pointer[view]
	stop chan struct{}
	bg   sync.WaitGroup
}

// Create initializes an empty appendable store at path (failing if the
// file exists) and opens it. opts.Spec names the default codec.
func Create(path string, opts Options) (*Store, error) {
	if opts.Spec == "" {
		return nil, fmt.Errorf("ingest: Create needs a codec spec")
	}
	coder, err := lookupCoder(opts.Spec)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	// The header records the coder's own (fully parameterized) spec, not
	// the user's shorthand, so live frames compressed by the default
	// coder intern to spec id 0 instead of re-interning an expansion.
	w, err := store.NewWriter(f, coder.Spec())
	if err == nil {
		err = w.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = store.FsyncDir(filepath.Dir(path))
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return Open(path, opts)
}

// Open opens the appendable store at path, recovering from a crash if
// the file ends in a torn commit: the last valid footer is located by
// backward scan, the tail truncated, and the WAL's intact records are
// replayed (frames the footer already covers are dropped by label) and
// committed before the first query runs.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	s, err := openLocked(f, path, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openLocked(f *os.File, path string, opts Options) (*Store, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	r, err := store.NewReader(f, size)
	committed := size
	if err != nil {
		// Torn tail: find the last durable commit and cut back to it.
		committed, r, err = store.RecoverCommittedSize(f, size)
		if err != nil {
			return nil, fmt.Errorf("ingest: %s has no recoverable commit: %w", path, err)
		}
		if err := f.Truncate(committed); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}
	// Commits append v2 footers (spec table + 30-byte entries); on a
	// version-1 file the header byte would still say 1, so the next
	// reader would parse the new footer with v1 entry sizes and fail —
	// after the WAL was already truncated. Refuse up front.
	if r.Version() != 2 {
		return nil, fmt.Errorf("ingest: %s is a version-%d store; rewrite it with `goblaz pack` before ingesting",
			path, r.Version())
	}
	specs := r.Specs()
	if opts.Spec != "" {
		// Compare through constructed coders so a shorthand spec matches
		// its fully parameterized expansion.
		wantCoder, err := lookupCoder(opts.Spec)
		if err != nil {
			return nil, err
		}
		haveCoder, err := lookupCoder(specs[0])
		if err != nil {
			return nil, fmt.Errorf("ingest: %s header spec: %w", path, err)
		}
		want, err := codec.Canonical(wantCoder.Spec())
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		have, err := codec.Canonical(haveCoder.Spec())
		if err != nil {
			return nil, fmt.Errorf("ingest: %s header spec: %w", path, err)
		}
		if want != have {
			return nil, fmt.Errorf("ingest: %s stores %q, requested %q", path, specs[0], opts.Spec)
		}
	}
	coder, err := lookupCoder(specs[0])
	if err != nil {
		return nil, err
	}
	// Canonicalize from the constructed coder, not the header string:
	// the coder's Spec() carries every parameter (defaults included), so
	// it matches what compressFrame canonicalizes for frames compressed
	// under the default codec.
	canon, err := codec.Canonical(coder.Spec())
	if err != nil {
		return nil, err
	}

	s := &Store{
		path:          path,
		walPath:       path + ".wal",
		opts:          opts,
		defaultCoder:  coder,
		defaultCanon:  canon,
		cache:         query.NewCache(opts.CacheBytes),
		f:             f,
		committedSize: committed,
		labels:        map[int]struct{}{},
		stop:          make(chan struct{}),
	}
	if err := s.adoptIndexLocked(r); err != nil {
		return nil, fmt.Errorf("ingest: %s %w", path, err)
	}
	for _, e := range s.entries {
		s.labels[e.Label] = struct{}{}
	}

	// Replay the WAL's intact prefix. Records whose label the store
	// already holds were committed by a footer whose WAL truncate never
	// landed; drop them. Torn trailing bytes are a crash mid-append of
	// a batch that was never acknowledged; drop those too.
	recs, validLen, tornBytes, err := replayWAL(s.walPath)
	if err != nil {
		return nil, err
	}
	if tornBytes > 0 {
		discardedTotal.Inc()
	}
	s.wal, err = openWAL(s.walPath, validLen)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if _, dup := s.labels[rec.label]; dup {
			discardedTotal.Inc()
			continue
		}
		s.labels[rec.label] = struct{}{}
		s.pending = append(s.pending, rec)
		s.pendingBytes += int64(len(rec.payload))
		replayedTotal.Inc()
	}
	if len(s.pending) > 0 {
		if err := s.commitLocked(context.Background()); err != nil {
			s.wal.Close()
			return nil, err
		}
	}
	// commitLocked tolerates a failed view swap (queries just stay on
	// the previous generation), but Open has no previous generation —
	// retry here and fail the open if the store still will not map.
	if s.cur.Load() == nil {
		if err := s.swapViewLocked(); err != nil {
			s.wal.Close()
			return nil, err
		}
	}
	pendingFrames.Set(int64(len(s.pending)))
	pendingBytes.Set(s.pendingBytes)

	s.bg.Add(1)
	go s.background()
	return s, nil
}

func lookupCoder(spec string) (codec.Coder, error) {
	cd, err := codec.Lookup(spec)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	coder, ok := cd.(codec.Coder)
	if !ok {
		return nil, fmt.Errorf("ingest: codec %q does not support byte serialization", cd.Name())
	}
	return coder, nil
}

// adoptIndexLocked takes the store's index — frames, interned specs,
// footer position, dead bytes — from a reader over the committed image.
// Dead bytes are what the data region holds beyond live payloads:
// footers superseded by earlier commits (none after a compaction).
func (s *Store) adoptIndexLocked(r *store.Reader) error {
	specs := r.Specs()
	extraSpecs := specs[1:]
	specIDs := map[string]int{s.defaultCanon: 0}
	for i, spec := range extraSpecs {
		canon, err := codec.Canonical(spec)
		if err != nil {
			return fmt.Errorf("spec table entry %d: %w", i+1, err)
		}
		specIDs[canon] = i + 1
	}
	entries := r.Frames()
	var live int64
	for _, e := range entries {
		live += e.Length
	}
	start, end := r.DataRegion()
	s.entries, s.extraSpecs, s.specIDs = entries, extraSpecs, specIDs
	s.footerOff = end
	s.deadBytes = end - start - live
	return nil
}

// background drives the commit timer and the compaction threshold.
func (s *Store) background() {
	defer s.bg.Done()
	tick := s.opts.CommitInterval
	if tick <= 0 {
		if s.opts.CompactBytes <= 0 {
			return
		}
		tick = time.Second // compaction checks only
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			var err error
			if s.opts.CommitInterval > 0 && len(s.pending) > 0 {
				err = s.commitLocked(context.Background())
			}
			if err == nil && s.opts.CompactBytes > 0 && s.deadBytes >= s.opts.CompactBytes {
				err = s.compactLocked()
			}
			s.mu.Unlock()
			_ = err // counted in goblaz_ingest_{commit,compaction}_failures_total; the next trigger retries
		}
	}
}

// Ingest accepts a batch of frames: compresses them concurrently,
// appends them to the WAL with one fsync, and commits if the batch
// crosses the commit policy. On return the batch is durable; frames
// become queryable at the commit the result reports or a later one.
// Implements api.Ingestor.
func (s *Store) Ingest(ctx context.Context, frames []api.IngestFrame) (*api.IngestResult, error) {
	ctx, span := obs.DefaultTracer.Start(ctx, "ingest.append")
	defer span.End()
	span.SetDetail("%d frames", len(frames))
	if len(frames) == 0 {
		return nil, api.Errorf(api.CodeBadRequest, "empty ingest batch")
	}
	// Override codecs are built once, here, where a bad spec is the
	// caller's error; nil when no frame names one.
	var coders []codec.Coder
	for i, f := range frames {
		n := 1
		for _, e := range f.Shape {
			if e <= 0 {
				return nil, api.Errorf(api.CodeBadRequest, "frame %d (label %d): bad shape %v", i, f.Label, f.Shape)
			}
			n *= e
		}
		if len(f.Shape) == 0 || len(f.Data) != n {
			return nil, api.Errorf(api.CodeBadRequest, "frame %d (label %d): shape %v needs %d values, got %d",
				i, f.Label, f.Shape, n, len(f.Data))
		}
		if f.Spec != "" {
			coder, err := lookupCoder(f.Spec)
			if err != nil {
				return nil, api.Errorf(api.CodeBadRequest, "frame %d (label %d): %v", i, f.Label, err)
			}
			if coders == nil {
				coders = make([]codec.Coder, len(frames))
			}
			coders[i] = coder
		}
	}

	// Reserve the batch's labels so concurrent batches (and queries over
	// labels) cannot race to the same label; release on failure.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, api.Errorf(api.CodeUnavailable, "ingest store is closed")
	}
	for i, f := range frames {
		if _, dup := s.labels[f.Label]; dup {
			for _, g := range frames[:i] {
				delete(s.labels, g.Label)
			}
			s.mu.Unlock()
			return nil, api.Errorf(api.CodeConflict, "label %d already exists", f.Label)
		}
		s.labels[f.Label] = struct{}{}
	}
	s.mu.Unlock()
	unreserve := func() {
		s.mu.Lock()
		for _, f := range frames {
			delete(s.labels, f.Label)
		}
		s.mu.Unlock()
	}

	// Compress outside the lock: concurrent batches overlap here. Each
	// frame fills its own slot, so the WAL keeps the batch's order.
	recs := make([]walRecord, len(frames))
	errs := make([]error, len(frames))
	err := tensor.ParallelForCoarseCtx(ctx, len(frames), func(i int) {
		coder := s.defaultCoder
		if frames[i].Spec != "" {
			coder = coders[i]
		}
		var cerr error
		if recs[i], cerr = s.compressFrame(frames[i], coder); cerr != nil {
			errs[i] = fmt.Errorf("ingest: frame %d (label %d): %w", i, frames[i].Label, cerr)
		}
	})
	if err == nil {
		err = errors.Join(errs...)
	}
	if err != nil {
		unreserve()
		return nil, api.FromError(err)
	}

	// Accept: one WAL write, one fsync, then the batch is durable.
	size := 0
	for i := range recs {
		size += recs[i].encodedLen()
	}
	buf := make([]byte, 0, size)
	for _, rec := range recs {
		buf = appendWALRecord(buf, rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		for _, f := range frames {
			delete(s.labels, f.Label)
		}
		return nil, api.Errorf(api.CodeUnavailable, "ingest store is closed")
	}
	if err := s.wal.append(buf); err != nil {
		for _, f := range frames {
			delete(s.labels, f.Label)
		}
		return nil, api.FromError(err)
	}
	s.pending = append(s.pending, recs...)
	s.pendingBytes += walPayloadBytes(recs)
	framesTotal.Add(uint64(len(recs)))
	batchesTotal.Inc()
	pendingFrames.Set(int64(len(s.pending)))
	pendingBytes.Set(s.pendingBytes)

	res := &api.IngestResult{Accepted: len(recs)}
	if (s.opts.CommitFrames > 0 && len(s.pending) >= s.opts.CommitFrames) ||
		(s.opts.CommitBytes > 0 && s.pendingBytes >= s.opts.CommitBytes) {
		if err := s.commitLocked(ctx); err != nil {
			// The batch is durable in the WAL; the commit retries on the
			// next trigger. Report it uncommitted rather than failing.
			res.Pending = len(s.pending)
			res.Frames = len(s.entries)
			return res, nil
		}
		res.Committed = true
	}
	res.Pending = len(s.pending)
	res.Frames = len(s.entries)
	return res, nil
}

// compressFrame turns one validated frame into its WAL record: compress
// under coder (the frame's own or the store default), then encode. The
// tensor wraps f.Data without copying — Ingest has checked the shape
// against the length, and nothing keeps the tensor past this call.
func (s *Store) compressFrame(f api.IngestFrame, coder codec.Coder) (walRecord, error) {
	t := tensor.FromSlice(f.Data, f.Shape...)
	start := time.Now()
	c, err := coder.Compress(t)
	if err != nil {
		return walRecord{}, err
	}
	spec := coder.Spec()
	codec.ObserveOp(spec, "compress", t.Len()*8, time.Since(start))
	payload, err := coder.Encode(c)
	if err != nil {
		return walRecord{}, err
	}
	canon, err := codec.Canonical(spec)
	if err != nil {
		return walRecord{}, err
	}
	if canon == s.defaultCanon {
		spec = "" // default codec: spec id 0, nothing to intern
	}
	return walRecord{label: f.Label, spec: spec, payload: payload}, nil
}

func walPayloadBytes(recs []walRecord) int64 {
	var n int64
	for _, rec := range recs {
		n += int64(len(rec.payload))
	}
	return n
}

// Commit folds every pending frame into the store under a fresh footer
// and swaps the read view. A no-op with nothing pending.
func (s *Store) Commit(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("ingest: store is closed")
	}
	if len(s.pending) == 0 {
		return nil
	}
	return s.commitLocked(ctx)
}

// commitLocked runs the commit sequence: append pending payloads after
// the current trailer, fsync, write the new footer + trailer, fsync,
// truncate the WAL. The previous commit's bytes are never touched, so
// a crash anywhere in the sequence loses nothing: before the new
// trailer is durable, recovery lands on the old commit and replays the
// WAL; after, the new commit stands and the stale WAL dedups away.
func (s *Store) commitLocked(ctx context.Context) error {
	_, span := obs.DefaultTracer.Start(ctx, "ingest.commit")
	defer span.End()
	span.SetDetail("%d frames, %d bytes", len(s.pending), s.pendingBytes)

	// Failures before the trailer fsync leave the previous commit intact
	// and the pending set untouched; the next trigger retries. They are
	// invisible to callers of the timer path, so count them.
	fail := func(err error) error {
		commitFailures.Inc()
		return err
	}
	writeOff := s.committedSize
	data := make([]byte, 0, s.pendingBytes) // the exact sum of the payloads
	newEntries := s.entries
	for _, rec := range s.pending {
		id, err := s.internSpecLocked(rec.spec)
		if err != nil {
			return fail(err)
		}
		newEntries = append(newEntries, store.FrameInfo{
			Label:  rec.label,
			Offset: writeOff + int64(len(data)),
			Length: int64(len(rec.payload)),
			CRC32:  crc32.ChecksumIEEE(rec.payload),
			SpecID: id,
		})
		data = append(data, rec.payload...)
	}
	if _, err := s.f.WriteAt(data, writeOff); err != nil {
		return fail(fmt.Errorf("ingest: appending frames: %w", err))
	}
	if err := s.f.Sync(); err != nil {
		return fail(fmt.Errorf("ingest: syncing frames: %w", err))
	}
	footerOff := writeOff + int64(len(data))
	footer := store.EncodeFooter(nil, s.extraSpecs, newEntries, footerOff)
	if _, err := s.f.WriteAt(footer, footerOff); err != nil {
		return fail(fmt.Errorf("ingest: writing footer: %w", err))
	}
	if err := s.f.Sync(); err != nil {
		return fail(fmt.Errorf("ingest: syncing footer: %w", err))
	}

	// The new trailer is durable: this is the commit point. The old
	// footer (committedSize − footerOff of the previous generation) is
	// now dead weight inside the data region.
	s.deadBytes += s.committedSize - s.footerOff
	s.committedSize = footerOff + int64(len(footer))
	s.footerOff = footerOff
	s.entries = newEntries
	s.pending = nil
	s.pendingBytes = 0
	commitsTotal.Inc()
	pendingFrames.Set(0)
	pendingBytes.Set(0)

	// Past the commit point, failures are cleanup failures, not commit
	// failures: reporting them as errors would tell an Ingest caller the
	// batch is uncommitted (and Close would surface an error) for frames
	// that are durable under the new trailer. Count them and succeed — a
	// stale WAL only costs label dedup on the next open, and a failed
	// view swap leaves queries on the previous generation until the next
	// commit (or openLocked) retries the swap.
	if err := s.wal.reset(); err != nil {
		cleanupFailures.Inc()
	}
	if err := s.swapViewLocked(); err != nil {
		cleanupFailures.Inc()
	}
	return nil
}

// internSpecLocked resolves a WAL record's spec to a footer spec id,
// interning new specs into the table.
func (s *Store) internSpecLocked(spec string) (int, error) {
	if spec == "" {
		return 0, nil
	}
	canon, err := codec.Canonical(spec)
	if err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	if id, ok := s.specIDs[canon]; ok {
		return id, nil
	}
	s.extraSpecs = append(s.extraSpecs, spec)
	id := len(s.extraSpecs)
	s.specIDs[canon] = id
	return id, nil
}

// swapViewLocked opens a fresh memory-mapped reader over the current
// commit and publishes it as the read view, releasing the store's
// reference on the previous generation (whose reader closes once its
// last in-flight query finishes).
func (s *Store) swapViewLocked() error {
	r, err := store.OpenReaderMmap(s.path)
	if err != nil {
		return fmt.Errorf("ingest: reopening store after commit: %w", err)
	}
	v := &view{local: api.NewLocal(r, query.New(r, query.Options{Cache: s.cache}).Run)}
	v.refs.Store(1)
	if old := s.cur.Swap(v); old != nil {
		old.release()
	}
	return nil
}

// acquireView pins the current read generation for one operation.
func (s *Store) acquireView() (*view, error) {
	for {
		v := s.cur.Load()
		if v == nil {
			return nil, api.Errorf(api.CodeUnavailable, "ingest store is closed")
		}
		if v.acquire() {
			return v, nil
		}
	}
}

// Compact rewrites the store with only live bytes — payloads and one
// footer — reclaiming the dead footers successive commits leave
// behind. Readers on older generations keep the pre-compaction inode
// alive until their queries finish.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("ingest: store is closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	dir := filepath.Dir(s.path)
	tmpf, err := os.CreateTemp(dir, ".goblaz-ingest-*")
	if err != nil {
		compactionFailures.Inc()
		return err
	}
	tmp := tmpf.Name()
	// Failures before the rename are harmless: discard the temp file and
	// keep serving from the untouched store.
	fail := func(err error) error {
		compactionFailures.Inc()
		tmpf.Close()
		os.Remove(tmp)
		return err
	}
	w, err := store.NewWriter(tmpf, s.defaultCoder.Spec())
	if err != nil {
		return fail(err)
	}
	payload := make([]byte, 0, 1<<16)
	for i, e := range s.entries {
		if cap(payload) < int(e.Length) {
			payload = make([]byte, e.Length)
		}
		payload = payload[:e.Length]
		if _, err := s.f.ReadAt(payload, e.Offset); err != nil {
			return fail(fmt.Errorf("ingest: compacting frame %d: %w", i, err))
		}
		if got := crc32.ChecksumIEEE(payload); got != e.CRC32 {
			return fail(fmt.Errorf("ingest: compacting frame %d (label %d): CRC %08x, index says %08x",
				i, e.Label, got, e.CRC32))
		}
		spec := ""
		if e.SpecID > 0 {
			spec = s.extraSpecs[e.SpecID-1]
		}
		if err := w.WriteFrameWithSpec(e.Label, payload, spec); err != nil {
			return fail(err)
		}
	}
	if err := w.Close(); err != nil {
		return fail(err)
	}
	if err := tmpf.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		compactionFailures.Inc()
		return err
	}
	// The rename retired the old inode: s.f now points at an unlinked
	// file no reopen will ever see. Any failure from here on poisons the
	// store — continuing to commit against the stale handle would
	// acknowledge batches that silently vanish on restart.
	if err := store.FsyncDir(dir); err != nil {
		return s.failLocked(err)
	}

	// Swap the data handle to the new inode and rebuild the index from
	// what was actually written — offsets moved, spec ids may have too.
	nf, err := os.OpenFile(s.path, os.O_RDWR, 0)
	if err != nil {
		return s.failLocked(err)
	}
	st, err := nf.Stat()
	if err != nil {
		nf.Close()
		return s.failLocked(err)
	}
	r, err := store.NewReader(nf, st.Size())
	if err != nil {
		nf.Close()
		return s.failLocked(fmt.Errorf("ingest: compacted store does not parse: %w", err))
	}
	s.f.Close()
	s.f = nf
	s.committedSize = st.Size()
	if err := s.adoptIndexLocked(r); err != nil {
		return s.failLocked(err)
	}
	compactionsTotal.Inc()
	if err := s.swapViewLocked(); err != nil {
		// The rewrite stands and s.f serves the new inode; queries stay
		// on the pre-compaction view (same frames) until the next commit
		// retries the swap.
		cleanupFailures.Inc()
	}
	return nil
}

// failLocked poisons the store after a failure that leaves the open
// handle unusable — compaction renamed the new image into place but the
// swap to it failed, so s.f points at an unlinked inode whose writes no
// reopen can see. Further Ingest/Commit/Compact calls are refused
// (reporting closed) instead of acknowledging batches that would vanish
// on restart; reopening the path recovers the on-disk state. Callers on
// the background goroutine rely on this not waiting for it.
func (s *Store) failLocked(err error) error {
	compactionFailures.Inc()
	s.closed = true
	close(s.stop)
	s.wal.Close()
	s.f.Close()
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
	return fmt.Errorf("ingest: store failed after compaction rename (reopen to recover): %w", err)
}

// DeadBytes reports the bytes superseded footers occupy — the
// compaction trigger's input.
func (s *Store) DeadBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadBytes
}

// Pending reports accepted-but-uncommitted frames.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close commits pending frames, stops the background committer, and
// releases every handle. In-flight queries finish against their
// pinned view.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if len(s.pending) > 0 {
		err = s.commitLocked(context.Background())
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.bg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if werr := s.wal.Close(); err == nil {
		err = werr
	}
	if ferr := s.f.Close(); err == nil {
		err = ferr
	}
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
	return err
}

// Abort drops every handle without committing — the crash seam for
// recovery tests: the files on disk are left exactly as a power cut
// at this instant would, WAL tail and all.
func (s *Store) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.bg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal.Close()
	s.f.Close()
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
}
