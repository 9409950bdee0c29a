package api

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// LimitOptions configures admission control for a Limited backend.
type LimitOptions struct {
	// MaxConcurrent is the number of requests allowed to execute at
	// once. ≤ 0 disables limiting — Limit returns the backend unwrapped.
	MaxConcurrent int
	// MaxQueue is the number of requests allowed to wait for a slot
	// once all MaxConcurrent are busy. ≤ 0 means no queue: saturation
	// sheds immediately.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before it is shed. ≤ 0 defaults to DefaultQueueWait.
	QueueWait time.Duration
}

// DefaultQueueWait bounds queue time when LimitOptions.QueueWait is
// unset: long enough to ride out a burst, short enough that a queued
// caller's p99 stays bounded instead of growing with the backlog.
const DefaultQueueWait = time.Second

// Limited wraps a Backend with admission control: a fixed concurrency
// limit, a bounded wait queue in front of it, and load shedding past
// that. Requests beyond MaxConcurrent wait in a queue of at most
// MaxQueue for up to QueueWait; everyone else is refused immediately
// with CodeOverloaded (HTTP 429 + Retry-After) instead of piling onto
// the backend — under overload the service degrades to fast, honest
// rejections with bounded latency rather than collapsing into timeouts.
//
// Decorating the Backend rather than the HTTP handler keeps the
// behavior transport-agnostic: an in-process Local, over a store or a
// sharded dataset, and a remote Client all shed identically, and the
// conformance suite exercises the 429 path against each. Cheap index
// reads (Spec, Frames, FrameInfo) bypass the limiter — only routes that
// decode or read payloads compete for slots.
type Limited struct {
	b     Backend
	slots chan struct{}
	queue chan struct{}
	wait  time.Duration

	// waits holds this limiter's own queue-wait observations, feeding
	// the Retry-After estimate. Private rather than the registry family:
	// the advice must reflect this backend's backlog, not every
	// limiter's in the process.
	waits *obs.Histogram
}

// Limit wraps b with admission control. With opts.MaxConcurrent ≤ 0 it
// returns b unchanged.
func Limit(b Backend, opts LimitOptions) Backend {
	if opts.MaxConcurrent <= 0 {
		return b
	}
	wait := opts.QueueWait
	if wait <= 0 {
		wait = DefaultQueueWait
	}
	queue := opts.MaxQueue
	if queue < 0 {
		queue = 0
	}
	return &Limited{
		b:     b,
		slots: make(chan struct{}, opts.MaxConcurrent),
		queue: make(chan struct{}, queue),
		wait:  wait,
		waits: obs.NewHistogramWith(nil),
	}
}

func overloadedf(format string, args ...any) *Error {
	return &Error{Code: CodeOverloaded, Message: fmt.Sprintf(format, args...), err: ErrOverloaded}
}

// RetryAfterSeconds is the limiter's current backoff advice: the
// observed queue-wait p50, rounded up to whole seconds and clamped to
// [1, 60]. Before any queue wait has been observed it is 1 — the
// historical constant — so cold-start advice stays aggressive and the
// estimate only stretches once real backlog data exists.
func (l *Limited) RetryAfterSeconds() int {
	if l.waits.Count() == 0 {
		return 1
	}
	s := int(math.Ceil(l.waits.Quantile(0.5)))
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return s
}

// shed stamps an overloaded error with the current backoff advice.
func (l *Limited) shed(e *Error) *Error {
	e.RetryAfterSeconds = l.RetryAfterSeconds()
	return e
}

// acquire admits the request or sheds it. On success the returned
// release must be called exactly once when the request finishes.
func (l *Limited) acquire(ctx context.Context) (release func(), err error) {
	free := func() {
		<-l.slots
		limitInflight.Dec()
	}
	select {
	case l.slots <- struct{}{}:
		limitAdmitted.Inc()
		limitInflight.Inc()
		return free, nil
	default:
	}
	// All slots busy: join the bounded queue or shed now.
	select {
	case l.queue <- struct{}{}:
	default:
		limitShedQueueFull.Inc()
		return nil, l.shed(overloadedf("server is at capacity (%d executing, %d queued)", cap(l.slots), cap(l.queue)))
	}
	limitQueueDepth.Inc()
	queued := time.Now()
	observeWait := func() {
		d := time.Since(queued)
		l.waits.ObserveDuration(d)
		limitQueueWait.ObserveDuration(d)
	}
	defer func() {
		<-l.queue
		limitQueueDepth.Dec()
	}()
	timer := time.NewTimer(l.wait)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		observeWait()
		limitAdmitted.Inc()
		limitInflight.Inc()
		return free, nil
	case <-timer.C:
		observeWait()
		limitShedTimeout.Inc()
		return nil, l.shed(overloadedf("no capacity after queuing %v", l.wait))
	case <-ctx.Done():
		observeWait()
		limitShedCanceled.Inc()
		return nil, FromError(ctx.Err())
	}
}

// admit runs call in an admission slot, or sheds it.
func admit[T any](l *Limited, ctx context.Context, call func() (T, error)) (T, error) {
	release, err := l.acquire(ctx)
	if err != nil {
		var zero T
		return zero, err
	}
	defer release()
	return call()
}

// Index reads pass through unlimited: they touch only the in-memory
// frame index and cost less than the bookkeeping to limit them.

func (l *Limited) Spec(ctx context.Context) (StoreInfo, error) { return l.b.Spec(ctx) }

func (l *Limited) Frames(ctx context.Context) ([]FrameInfo, error) { return l.b.Frames(ctx) }

func (l *Limited) FrameInfo(ctx context.Context, label int) (FrameInfo, error) {
	return l.b.FrameInfo(ctx, label)
}

func (l *Limited) Frame(ctx context.Context, label int) (*Frame, error) {
	return admit(l, ctx, func() (*Frame, error) { return l.b.Frame(ctx, label) })
}

func (l *Limited) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	return admit(l, ctx, func() (*query.FrameResult, error) { return l.b.Region(ctx, label, offset, shape) })
}

func (l *Limited) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	return admit(l, ctx, func() (*query.FrameResult, error) { return l.b.Stats(ctx, label, aggs) })
}

func (l *Limited) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	return admit(l, ctx, func() (*query.Result, error) { return l.b.Query(ctx, req) })
}

// Ingest forwards the Ingestor capability under the limiter: an
// ingest batch runs the compression pipeline, which is decode-class
// CPU work, so batches compete for the same slots as queries and shed
// with 429 + Retry-After under overload — exactly what a well-behaved
// producer backs off on.
func (l *Limited) Ingest(ctx context.Context, frames []IngestFrame) (*IngestResult, error) {
	ing, ok := l.b.(Ingestor)
	if !ok {
		return nil, Errorf(CodeNotSupported, "backend does not accept ingest")
	}
	return admit(l, ctx, func() (*IngestResult, error) { return ing.Ingest(ctx, frames) })
}

func (l *Limited) Payload(ctx context.Context, label int) ([]byte, error) {
	return admit(l, ctx, func() ([]byte, error) { return l.b.Payload(ctx, label) })
}

// PayloadReader holds a slot only while the reader is handed back, not
// while the response streams: the bytes are already positioned (mmap,
// file offset or a fetched buffer) and the copy costs no decode work.
func (l *Limited) PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error) {
	return admit(l, ctx, func() (io.ReadSeeker, error) { return l.b.PayloadReader(ctx, label) })
}
