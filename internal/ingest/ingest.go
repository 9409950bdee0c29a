// Package ingest turns the append-once store into a crash-safe
// appendable one: frames stream in over an API, land durably in a log
// at the store file's tail, and come under a fresh footer on a commit
// policy (every N frames, B bytes, or T seconds), while queries keep
// running against atomically swapped read views.
//
// # Durability model
//
// The store file's trailer is its commit record. Everything after the
// last trailer is the log: each accepted batch appends its frames
// there as length+CRC-framed records, fsynced before the ingest call
// returns, so a 200 means the batch survives a crash. A commit appends
// only a footer and trailer after the records, its entries pointing at
// the payloads inside them; the bytes of the last commit are never
// overwritten. Reopening finds the last commit by backward trailer
// scan (store.RecoverCommittedSize), keeps the intact record prefix
// after it, truncates the torn rest, and commits before the first
// query. Between commits the file ends in records, so a plain store
// reader refuses it until the next commit or Close.
//
// Superseded footers and record framing remain as dead bytes inside
// the data region; a background compactor rewrites the store (temp
// file + rename, the pack idiom) once they pass a threshold.
//
// # Read views
//
// Queries never block on ingest. Each commit opens a fresh
// memory-mapped reader over the grown store and swaps it in as the
// current view; in-flight queries hold a reference to the view they
// started on, and a view's reader closes only when the last reference
// drops. All generations share one decoded-frame cache under one frame
// identity, the first generation's reader id: a committed frame keeps
// its position and bytes across commits, and compaction copies the
// payloads in index order with a CRC check, so a frame decoded before
// a commit or compaction is a cache hit after it.
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
	// the log at the store file's tail, durable but not queryable, until
	// Commit or Close.
	CommitInterval time.Duration
	// CompactBytes rewrites the store once superseded footers and
	// record framing exceed this many dead bytes; ≤ 0 disables
	// auto-compaction (Compact still works).
	CompactBytes int64
	// CacheBytes budgets the decoded-frame cache shared across view
	// generations; ≤ 0 disables caching.
	CacheBytes int64
}

// generation is one commit's reader under the store's frame identity
// (Store.frameKey) instead of its own, so the query cache keys a frame
// the same in every generation.
type generation struct {
	*store.Reader
	key uint64
}

func (g generation) FrameKey(i int) (source uint64, frame int) { return g.key, i }

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
	path string
	opts Options

	defaultCoder codec.Coder
	defaultCanon string
	cache        *query.Cache
	frameKey     uint64 // the first generation's reader id; 0 until then

	mu        sync.Mutex
	f         *os.File // store file, positioned writes only
	size      int64    // bytes in use: the last commit, then the log
	footerOff int64    // where the current footer starts
	// idx holds the committed frames and the specs of every logged one,
	// interned at accept so no logged frame's spec can fail a commit.
	idx          store.Index
	labels       map[int]struct{}  // pending + reserved; idx holds the committed
	pending      []store.FrameInfo // logged, not yet under a footer
	pendingBytes int64             // payload bytes in pending
	deadBytes    int64             // data-region bytes that are not live payloads
	closed       bool

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
	coder, err := codec.Lookup(opts.Spec)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
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
// the file does not end in a commit: the last valid footer is located
// by backward scan, the intact records logged after it are kept (frames
// the footer already covers are dropped by label), the torn rest is
// truncated, and the kept frames are committed before the first query
// runs. Open refuses a store whose older-release "<store>.wal" still
// holds frames.
func Open(path string, opts Options) (*Store, error) {
	if err := retireWAL(path + ".wal"); err != nil {
		return nil, err
	}
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
		// The file ends in log records or a torn commit: find the last
		// durable commit; what follows it is the log.
		committed, r, err = store.RecoverCommittedSize(f, size)
		if err != nil {
			return nil, fmt.Errorf("ingest: %s has no recoverable commit: %w", path, err)
		}
	}
	// Commits append v2 footers (spec table + 30-byte entries); on a
	// version-1 file the header byte would still say 1, so the next
	// reader would parse the new footer with v1 entry sizes and fail,
	// losing every frame logged since. Refuse up front.
	if r.Version() != 2 {
		return nil, fmt.Errorf("ingest: %s is a version-%d store; rewrite it with `goblaz pack` before ingesting",
			path, r.Version())
	}
	coder, err := codec.Lookup(r.Spec())
	if err != nil {
		return nil, fmt.Errorf("ingest: %s header spec: %w", path, err)
	}
	// Canonicalize from the constructed coder, not the header string:
	// the coder's Spec() carries every parameter (defaults included), so
	// it matches what compressFrame canonicalizes for frames compressed
	// under the default codec.
	canon, err := codec.Canonical(coder.Spec())
	if err != nil {
		return nil, fmt.Errorf("ingest: %s header spec: %w", path, err)
	}
	if opts.Spec != "" {
		// Compare through constructed coders so a shorthand spec matches
		// its fully parameterized expansion.
		wantCoder, err := codec.Lookup(opts.Spec)
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if want, err := codec.Canonical(wantCoder.Spec()); err != nil || want != canon {
			return nil, fmt.Errorf("ingest: %s stores %q, requested %q", path, r.Spec(), opts.Spec)
		}
	}

	s := &Store{
		path:         path,
		opts:         opts,
		defaultCoder: coder,
		defaultCanon: canon,
		cache:        query.NewCache(opts.CacheBytes),
		f:            f,
		size:         committed,
		labels:       map[int]struct{}{},
		stop:         make(chan struct{}),
	}
	s.adoptIndexLocked(r)
	if err := s.recoverLogLocked(size); err != nil {
		return nil, err
	}
	// commitLocked tolerates a failed view swap (queries just stay on
	// the previous generation), but Open has no previous generation —
	// retry here and fail the open if the store still will not map.
	if s.cur.Load() == nil {
		if err := s.swapViewLocked(); err != nil {
			return nil, err
		}
	}
	pendingFrames.Set(int64(len(s.pending)))
	pendingBytes.Set(s.pendingBytes)

	s.bg.Add(1)
	go s.background()
	return s, nil
}

// recoverLogLocked keeps the intact record prefix logged after the last
// commit (which ends at s.size) in a file of size bytes, and commits it.
// A record whose label is committed or already kept is no frame anyone
// was promised (a batch is acknowledged only under labels no other
// frame holds): it is dropped. Torn trailing bytes are a crash
// mid-append of a batch that was never acknowledged; they are
// truncated away.
func (s *Store) recoverLogLocked(size int64) error {
	if size == s.size {
		return nil
	}
	tail := make([]byte, size-s.size)
	if _, err := s.f.ReadAt(tail, s.size); err != nil {
		return fmt.Errorf("ingest: reading %s's log: %w", s.path, err)
	}
	var n int64
	for {
		rec, k, err := parseWALRecord(tail[n:])
		if err != nil {
			break
		}
		e := rec.frameAt(s.size + n)
		n += int64(k)
		_, logged := s.labels[e.Label]
		if _, committed := s.idx.IndexOf(e.Label); logged || committed {
			discardedTotal.Inc()
			continue
		}
		// The spec passed the limits when its batch was accepted; a
		// record that still fails them is refused, never dropped.
		if e.SpecID, err = s.idx.SpecID(rec.spec); err != nil {
			return fmt.Errorf("ingest: %s: logged frame (label %d): %w", s.path, e.Label, err)
		}
		s.labels[e.Label] = struct{}{}
		s.pending = append(s.pending, e)
		s.pendingBytes += e.Length
		replayedTotal.Inc()
	}
	if n < int64(len(tail)) {
		discardedTotal.Inc()
	}
	if len(s.pending) > 0 {
		s.size += n
	}
	if s.size < size {
		if err := s.f.Truncate(s.size); err != nil {
			return err
		}
	}
	// A kept record may sit only in the page cache (a crash between a
	// batch's write and its fsync); it must be durable before a footer
	// points at it.
	if err := s.f.Sync(); err != nil {
		return err
	}
	if len(s.pending) == 0 {
		return nil
	}
	return s.commitLocked(context.Background())
}

// adoptIndexLocked takes the store's frames, spec table, footer
// position and dead bytes from a reader over the committed image. The
// index is a Clone of the reader's Inventory: commits grow it, and the
// reader never sees them. Dead bytes are what the data region holds
// beyond live payloads: footers superseded by earlier commits and the
// framing of the log records payloads were committed in (none after a
// compaction).
func (s *Store) adoptIndexLocked(r *store.Reader) {
	var live int64
	for i := 0; i < r.Len(); i++ {
		live += r.Info(i).Length
	}
	start, end := r.DataRegion()
	s.idx = r.Inventory.Clone()
	s.footerOff = end
	s.deadBytes = end - start - live
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
// appends them to the log at the store file's tail with one write and
// one fsync, and commits if the batch crosses the commit policy. On
// return the batch is durable; frames become queryable at the commit
// the result reports or a later one.
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
			coder, err := codec.Lookup(f.Spec)
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
		_, reserved := s.labels[f.Label]
		if _, committed := s.idx.IndexOf(f.Label); reserved || committed {
			for _, g := range frames[:i] {
				delete(s.labels, g.Label)
			}
			s.mu.Unlock()
			return nil, api.Errorf(api.CodeConflict, "label %d already exists", f.Label)
		}
		s.labels[f.Label] = struct{}{}
	}
	s.mu.Unlock()

	// Compress outside the lock: concurrent batches overlap here. Each
	// frame fills its own slot, so the log keeps the batch's order.
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
		s.mu.Lock()
		for _, f := range frames {
			delete(s.labels, f.Label)
		}
		s.mu.Unlock()
		return nil, api.FromError(err)
	}

	// Accept: one write at the log's end, one fsync, then the batch is
	// durable.
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
		err = api.Errorf(api.CodeUnavailable, "ingest store is closed")
	}
	// Intern the batch's specs before its records reach the log: a spec
	// past the table's limits refuses the batch here, where it is the
	// caller's error, instead of failing every later commit.
	nspecs := s.idx.NumSpecs()
	added := make([]store.FrameInfo, len(recs))
	end := s.size
	for i := 0; err == nil && i < len(recs); i++ {
		added[i] = recs[i].frameAt(end)
		end += int64(recs[i].encodedLen())
		if added[i].SpecID, err = s.idx.SpecID(recs[i].spec); err != nil {
			err = api.Errorf(api.CodeBadRequest, "frame %d (label %d): %v", i, frames[i].Label, err)
		}
	}
	if err == nil {
		if _, err = s.f.WriteAt(buf, s.size); err == nil {
			start := time.Now()
			err = s.f.Sync()
			walFsyncSeconds.ObserveDuration(time.Since(start))
		}
		if err != nil {
			err = api.FromError(fmt.Errorf("ingest: appending to the log: %w", err))
		}
	}
	if err != nil {
		s.idx.Truncate(s.idx.Len(), nspecs)
		for _, f := range frames {
			delete(s.labels, f.Label)
		}
		return nil, err
	}
	walBytesTotal.Add(uint64(len(buf)))
	s.size = end
	s.pending = append(s.pending, added...)
	for _, e := range added {
		s.pendingBytes += e.Length
	}
	framesTotal.Add(uint64(len(recs)))
	batchesTotal.Inc()
	pendingFrames.Set(int64(len(s.pending)))
	pendingBytes.Set(s.pendingBytes)

	res := &api.IngestResult{Accepted: len(recs)}
	if (s.opts.CommitFrames > 0 && len(s.pending) >= s.opts.CommitFrames) ||
		(s.opts.CommitBytes > 0 && s.pendingBytes >= s.opts.CommitBytes) {
		// The batch is durable in the log; a failed commit retries on
		// the next trigger. Report it uncommitted rather than failing.
		res.Committed = s.commitLocked(ctx) == nil
	}
	res.Pending = len(s.pending)
	res.Frames = s.idx.Len()
	return res, nil
}

// compressFrame turns one validated frame into its log record: compress
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

// commitLocked runs the commit sequence: write a footer + trailer
// indexing the pending frames' payloads inside their log records after
// the last record, and fsync. The records were fsynced when their
// batches were accepted, and the previous commit's bytes are never
// touched, so a crash anywhere in the sequence loses nothing: before
// the new trailer is durable, recovery lands on the old commit and
// keeps the records after it; after, the new commit stands.
func (s *Store) commitLocked(ctx context.Context) error {
	_, span := obs.DefaultTracer.Start(ctx, "ingest.commit")
	defer span.End()
	span.SetDetail("%d frames, %d bytes", len(s.pending), s.pendingBytes)

	// Failures before the trailer fsync leave the previous commit intact,
	// the index truncated back to it and the pending set untouched; the
	// next trigger retries. They are invisible to callers of the timer
	// path, so count them.
	committed := s.idx.Len()
	fail := func(err error) error {
		s.idx.Truncate(committed, s.idx.NumSpecs())
		commitFailures.Inc()
		return err
	}
	for _, e := range s.pending {
		if err := s.idx.Add(e); err != nil {
			return fail(fmt.Errorf("ingest: %w", err))
		}
	}
	footerOff := s.size
	footer := s.idx.AppendFooter(nil, footerOff)
	end := footerOff + int64(len(footer))
	if _, err := s.f.WriteAt(footer, footerOff); err != nil {
		return fail(fmt.Errorf("ingest: writing footer: %w", err))
	}
	// A failed append or commit may have left bytes past the new
	// trailer; readers need the file to end in it.
	if err := s.f.Truncate(end); err != nil {
		return fail(fmt.Errorf("ingest: truncating after the footer: %w", err))
	}
	if err := s.f.Sync(); err != nil {
		return fail(fmt.Errorf("ingest: syncing footer: %w", err))
	}

	// The new trailer is durable: this is the commit point. The old
	// footer and the new records' framing are now dead weight inside
	// the data region, which grew by everything but the new payloads.
	s.deadBytes += footerOff - s.footerOff - s.pendingBytes
	s.size = end
	s.footerOff = footerOff
	for _, e := range s.pending {
		delete(s.labels, e.Label)
	}
	s.pending = nil
	s.pendingBytes = 0
	commitsTotal.Inc()
	pendingFrames.Set(0)
	pendingBytes.Set(0)

	// Past the commit point, a failure is a cleanup failure, not a
	// commit failure: reporting it as an error would tell an Ingest
	// caller the batch is uncommitted (and Close would surface an error)
	// for frames that are durable under the new trailer. Count it and
	// succeed — a failed view swap leaves queries on the previous
	// generation until the next commit (or openLocked) retries the swap.
	if err := s.swapViewLocked(); err != nil {
		cleanupFailures.Inc()
	}
	return nil
}

// swapViewLocked opens a fresh memory-mapped reader over the current
// commit and publishes it as the read view, releasing the store's
// reference on the previous generation (whose reader closes once its
// last in-flight query finishes). Every generation keys its frames by
// the first one's reader id: reader ids are process-unique and never
// reused, and a committed frame keeps its position and bytes across
// commits and compactions, so cached decodes stay valid.
func (s *Store) swapViewLocked() error {
	r, err := store.OpenReaderMmap(s.path)
	if err != nil {
		return fmt.Errorf("ingest: reopening store after commit: %w", err)
	}
	if s.frameKey == 0 {
		s.frameKey, _ = r.FrameKey(0)
	}
	g := generation{Reader: r, key: s.frameKey}
	v := &view{local: api.NewLocal(g, query.New(g, query.Options{Cache: s.cache}).Run)}
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

// Compact commits what is pending, then rewrites the store with only
// live bytes — payloads and one footer — reclaiming the dead footers
// and record framing successive commits leave behind. Readers on older
// generations keep the pre-compaction inode alive until their queries
// finish.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("ingest: store is closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Commit first: the file then ends in a trailer, so the rewrite
	// below carries every frame and no log record is left behind.
	if len(s.pending) > 0 {
		if err := s.commitLocked(context.Background()); err != nil {
			compactionFailures.Inc()
			return err
		}
	}
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
	for i, e := range s.idx.Frames() {
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
			spec = s.idx.FrameSpec(i)
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
	s.size = st.Size()
	s.adoptIndexLocked(r)
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
	s.f.Close()
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
	return fmt.Errorf("ingest: store failed after compaction rename (reopen to recover): %w", err)
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
	if ferr := s.f.Close(); err == nil {
		err = ferr
	}
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
	return err
}
