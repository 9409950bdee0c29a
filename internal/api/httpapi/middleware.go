package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// statusWriter records the status and body size for the access log,
// lets the panic handler know whether headers already went out, and
// carries the matched route's label for the metrics.
type statusWriter struct {
	http.ResponseWriter
	status    int
	bytes     int64
	route     string // the matched pattern's path; "" until a route runs
	enveloped bool   // the mux's own plain-text body was replaced
}

// WriteHeader sends the status once. A 404 or 405 before any route ran
// is net/http's mux refusing a request no pattern matched: its
// plain-text body is replaced by the v1 envelope, not_found or (for a
// known path with the wrong method, which keeps its Allow header)
// bad_request.
func (w *statusWriter) WriteHeader(status int) {
	if w.status != 0 {
		return
	}
	var apiErr *api.Error
	if w.route == "" {
		switch status {
		case http.StatusNotFound:
			apiErr = api.Errorf(api.CodeNotFound, "no such route")
		case http.StatusMethodNotAllowed:
			apiErr = api.Errorf(api.CodeBadRequest, "method not allowed")
		}
	}
	w.status = status
	if apiErr == nil {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.bytes += int64(writeEnvelope(w.ResponseWriter, status, apiErr))
	w.enveloped = true
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.enveloped {
		return len(p), nil
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// handle registers fn under pattern ("METHOD /path"). The pattern's
// path becomes the request's route label, so metric cardinality stays
// fixed however many frames and mounts traffic touches: the mux is the
// one route table, and a request no pattern matches is labelled
// "other".
func (h *Handler) handle(pattern string, fn http.HandlerFunc) {
	_, route, _ := strings.Cut(pattern, " ")
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		w.(*statusWriter).route = route // ServeHTTP is the mux's one caller
		fn(w, req)
	})
}

// ServeHTTP wraps every route in the transport concerns, in order: the
// request's trace identity (adopting a W3C traceparent when the client
// sent one, minting one otherwise), the optional deadline (the engine
// re-checks the context between frames, so an abandoned query stops
// working at it), the request body limit (oversized reads surface as
// *http.MaxBytesError, which writeError maps to bad_request), panic
// recovery, then the per-route × status-class metrics and the access
// log — key=value by default, one JSON object per line with
// Options.LogJSON. The metrics and the log see the final status,
// including the 500 a panic turned into.
func (h *Handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var sc obs.SpanContext
	// Canonical keys: a lowercase one is canonicalized into a fresh
	// string on every request.
	if parent, ok := obs.ParseTraceparent(req.Header.Get("Traceparent")); ok {
		sc = parent.Child() // same trace, new span: the server's own unit of work
	} else {
		sc = obs.NewSpanContext()
	}
	w.Header()[TraceIDHeader] = []string{sc.TraceID.String()}
	ctx, span := obs.DefaultTracer.StartRoot(req.Context(), "http.request", sc)
	span.SetDetail("%s %s", req.Method, req.URL.Path)
	if h.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.opts.RequestTimeout)
		defer cancel()
	}
	sw := &statusWriter{ResponseWriter: w}
	req = req.WithContext(ctx)
	if req.Body != nil {
		req.Body = http.MaxBytesReader(sw, req.Body, maxRequestBytes)
	}

	start := time.Now()
	h.serveRecovering(sw, req)
	dur := time.Since(start)

	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	route, class := sw.route, statusClass(status)
	if route == "" {
		route = "other"
	}
	httpRequests.With(route, class).Inc()
	httpSeconds.With(route, class).ObserveDuration(dur)
	span.End()

	logf := h.opts.Logf
	if logf == nil {
		return
	}
	if h.opts.LogJSON {
		blob, err := json.Marshal(accessRecord{
			Method:   req.Method,
			Path:     req.URL.Path,
			Status:   status,
			Bytes:    sw.bytes,
			Duration: dur.Round(time.Microsecond).String(),
			Trace:    sc.TraceID.String(),
		})
		if err == nil {
			logf("%s", blob)
		}
		return
	}
	logf("method=%s path=%s status=%d bytes=%d dur=%s trace=%s",
		req.Method, req.URL.Path, status, sw.bytes,
		dur.Round(time.Microsecond), sc.TraceID)
}

// serveRecovering runs the mux, converting a handler panic into a 500
// envelope (when the response has not started) instead of tearing down
// the connection, and logs the stack — the envelope never carries it.
func (h *Handler) serveRecovering(sw *statusWriter, req *http.Request) {
	defer func() {
		if r := recover(); r != nil {
			if h.opts.Logf != nil {
				h.opts.Logf("panic serving %s %s: %v\n%s", req.Method, req.URL.Path, r, debug.Stack())
			}
			if sw.status == 0 {
				writeError(sw, api.Errorf(api.CodeInternal, "internal error"))
			}
		}
	}()
	h.mux.ServeHTTP(sw, req)
}
