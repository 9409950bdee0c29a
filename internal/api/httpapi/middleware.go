package httpapi

import (
	"context"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/api"
)

// withMiddleware stacks the transport concerns around the mux, from the
// outside in: instrumentation (trace identity, route metrics, and the
// access log — it sees the final status, including the 500 a panic
// turned into), panic recovery, request deadline, body limit.
func withMiddleware(next http.Handler, opts Options) http.Handler {
	h := limitBody(next)
	if opts.RequestTimeout > 0 {
		h = withDeadline(h, opts.RequestTimeout)
	}
	h = recoverPanics(h, opts.Logf)
	return instrument(h, opts)
}

// statusWriter records the status and body size for the access log and
// lets the panic handler know whether headers already went out.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status != 0 {
		return
	}
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// recoverPanics converts a handler panic into a 500 envelope (when the
// response has not started) instead of tearing down the connection, and
// logs the stack — the envelope itself never carries it.
func recoverPanics(next http.Handler, logf func(string, ...any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if r := recover(); r != nil {
				if logf != nil {
					logf("panic serving %s %s: %v\n%s", req.Method, req.URL.Path, r, debug.Stack())
				}
				if sw.status == 0 {
					writeError(sw, api.Errorf(api.CodeInternal, "internal error"))
				}
			}
		}()
		next.ServeHTTP(sw, req)
	})
}

// withDeadline bounds each request's context, so abandoned or
// oversized queries stop doing compressed-domain work at the deadline
// (the engine re-checks the context between frames).
func withDeadline(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, cancel := context.WithTimeout(req.Context(), d)
		defer cancel()
		next.ServeHTTP(w, req.WithContext(ctx))
	})
}

// limitBody caps request bodies at maxRequestBytes; oversized reads
// surface as *http.MaxBytesError, which writeError maps to bad_request.
func limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Body != nil {
			req.Body = http.MaxBytesReader(w, req.Body, maxRequestBytes)
		}
		next.ServeHTTP(w, req)
	})
}
