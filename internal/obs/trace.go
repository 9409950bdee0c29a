package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceID identifies one request end to end — minted by whichever layer
// sees the request first (api.Client or the HTTP middleware) and
// carried through context and the W3C traceparent header.
type TraceID [16]byte

// String returns the 32 lowercase hex digits of the ID.
func (t TraceID) String() string {
	var buf [2 * len(TraceID{})]byte
	hex.Encode(buf[:], t[:])
	return string(buf[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID identifies one operation within a trace.
type SpanID [8]byte

// String returns the 16 lowercase hex digits of the ID.
func (s SpanID) String() string {
	var buf [2 * len(SpanID{})]byte
	hex.Encode(buf[:], s[:])
	return string(buf[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated identity of a trace: which trace this
// work belongs to, and which span is its parent.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// NewSpanContext mints a fresh trace with a root span.
func NewSpanContext() SpanContext {
	var sc SpanContext
	// crypto/rand.Read never fails on supported platforms.
	rand.Read(sc.TraceID[:])
	rand.Read(sc.SpanID[:])
	return sc
}

// Child returns a context in the same trace with a new span ID — what a
// layer passes downstream so its own span is the parent.
func (sc SpanContext) Child() SpanContext {
	child := SpanContext{TraceID: sc.TraceID}
	rand.Read(child.SpanID[:])
	return child
}

// Traceparent renders the W3C trace-context header value, version 00,
// sampled flag set: "00-" + trace ID + "-" + span ID + "-01". The text
// is built in a fixed array, so the result string is its one allocation.
func (sc SpanContext) Traceparent() string {
	const traceAt, spanAt = 3, 3 + 32 + 1
	var buf [spanAt + 16 + 3]byte
	copy(buf[:], "00-")
	hex.Encode(buf[traceAt:], sc.TraceID[:])
	buf[spanAt-1] = '-'
	hex.Encode(buf[spanAt:], sc.SpanID[:])
	copy(buf[spanAt+16:], "-01")
	return string(buf[:])
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// any version byte (per spec, future versions are parsed as 00) and
// rejects malformed fields and all-zero IDs.
func ParseTraceparent(s string) (SpanContext, bool) {
	// The four dash-separated fields sit at fixed offsets: version [0,2),
	// trace ID [3,35), span ID [36,52), flags [53,55); anything after the
	// flags must start a further field.
	s = strings.TrimSpace(s)
	if len(s) < 55 || s[0] == '-' || s[1] == '-' || s[2] != '-' || s[35] != '-' || s[52] != '-' ||
		(len(s) > 55 && s[55] != '-') {
		return SpanContext{}, false
	}
	if s[:2] == "ff" {
		return SpanContext{}, false
	}
	var sc SpanContext
	var flags [1]byte
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, false
	}
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, false
	}
	return sc, true
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span context; downstream layers pick it up
// with SpanContextFrom or by starting spans through a Tracer.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom extracts the span context, if any.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// Span is one timed operation in a trace. Created by Tracer.Start and
// finished with End; a nil *Span is valid and inert, which is how
// untraced requests skip all recording without branches at call sites.
type Span struct {
	tracer *Tracer
	name   string
	detail string
	sc     SpanContext
	start  time.Time
}

// SetDetail attaches a free-form description shown in the slow-query
// log and the OnSpan hook (e.g. the query selector, a shard index).
func (s *Span) SetDetail(format string, args ...any) {
	if s == nil {
		return
	}
	s.detail = fmt.Sprintf(format, args...)
}

// End finishes the span: records its duration in the tracer's span
// histogram, emits a slow-query log line when the duration crosses the
// tracer's threshold, and fires the OnSpan hook.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	t := s.tracer
	t.spanSeconds.With(s.name).ObserveDuration(d)

	t.mu.RLock()
	slow := t.slowThreshold
	logf := t.logf
	hook := t.onSpan
	t.mu.RUnlock()

	if slow > 0 && d >= slow && logf != nil {
		t.slowTotal.With(s.name).Inc()
		if s.detail != "" {
			logf("slow span=%s trace=%s dur=%s detail=%q", s.name, s.sc.TraceID, d, s.detail)
		} else {
			logf("slow span=%s trace=%s dur=%s", s.name, s.sc.TraceID, d)
		}
	}
	if hook != nil {
		hook(SpanRecord{Name: s.name, Detail: s.detail, Context: s.sc, Duration: d})
	}
}

// SpanRecord is the finished-span value handed to the OnSpan hook —
// the test seam for asserting trace propagation end to end.
type SpanRecord struct {
	Name     string
	Detail   string
	Context  SpanContext
	Duration time.Duration
}

// Tracer starts spans and owns the slow-span policy. Start is a no-op
// (nil span) when the incoming context carries no SpanContext, so
// instrumented layers cost one context lookup on untraced work.
type Tracer struct {
	spanSeconds *HistogramVec
	slowTotal   *CounterVec

	mu            sync.RWMutex
	slowThreshold time.Duration
	logf          func(format string, args ...any)
	onSpan        func(SpanRecord)
}

// NewTracer builds a tracer registering its span families on r.
func NewTracer(r *Registry) *Tracer {
	return &Tracer{
		spanSeconds: r.HistogramVec("goblaz_trace_span_seconds",
			"Duration of traced spans by span name.", nil, "span"),
		slowTotal: r.CounterVec("goblaz_trace_slow_spans_total",
			"Spans exceeding the slow-query threshold, by span name.", "span"),
	}
}

// DefaultTracer records on the Default registry; every instrumented
// layer starts spans here.
var DefaultTracer = NewTracer(Default)

// Configure sets the slow-span threshold and log sink. A zero
// threshold disables the slow-query log.
func (t *Tracer) Configure(slowThreshold time.Duration, logf func(format string, args ...any)) {
	t.mu.Lock()
	t.slowThreshold = slowThreshold
	t.logf = logf
	t.mu.Unlock()
}

// OnSpan installs a hook receiving every finished span — a test seam;
// nil uninstalls.
func (t *Tracer) OnSpan(fn func(SpanRecord)) {
	t.mu.Lock()
	t.onSpan = fn
	t.mu.Unlock()
}

// Start begins a span named name if ctx carries a trace, returning a
// derived context whose SpanContext is the new span (so downstream
// spans parent correctly) and the span itself. Without a trace in ctx
// it returns (ctx, nil): End on a nil span is free.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, ok := SpanContextFrom(ctx)
	if !ok {
		return ctx, nil
	}
	sc := parent.Child()
	s := &Span{tracer: t, name: name, sc: sc, start: time.Now()}
	return ContextWithSpan(ctx, sc), s
}

// StartRoot begins a span from an explicit SpanContext (the HTTP
// middleware's entry point, where the identity comes from the header
// rather than the context).
func (t *Tracer) StartRoot(ctx context.Context, name string, sc SpanContext) (context.Context, *Span) {
	s := &Span{tracer: t, name: name, sc: sc, start: time.Now()}
	return ContextWithSpan(ctx, sc), s
}
