package httpapi

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Registry families for the HTTP surface: request counts and latency
// by route pattern × status class.
var (
	httpRequests = obs.NewCounterVec("goblaz_http_requests_total",
		"HTTP requests served, by route pattern and status class.", "route", "class")
	httpSeconds = obs.NewHistogramVec("goblaz_http_request_seconds",
		"HTTP request latency in seconds, by route pattern and status class.", nil, "route", "class")
)

// routeLabel maps a request path to a bounded route label: path
// parameters collapse to placeholders ({label}, {store}) so metric
// cardinality stays fixed however many frames and mounts traffic
// touches, and unrecognized paths collapse to "other". Hand-rolled
// rather than read off the mux because the matched-pattern accessor
// needs a newer net/http than the oldest toolchain this repo supports.
func routeLabel(path string) string {
	p := strings.Trim(path, "/")
	if p == "" {
		return "/"
	}
	parts := strings.Split(p, "/")
	switch parts[0] {
	case "healthz", "readyz", "metrics":
		if len(parts) == 1 {
			return "/" + parts[0]
		}
		return "other"
	case "v1":
	default:
		return "other"
	}
	rest := parts[1:]
	if len(rest) == 0 {
		return "other"
	}
	switch rest[0] {
	case "debug":
		if len(rest) == 2 && rest[1] == "metrics" {
			return "/v1/debug/metrics"
		}
	case "store", "query":
		if len(rest) == 1 {
			return "/v1/" + rest[0]
		}
	case "frames":
		return frameRoute("/v1/frames", rest[1:])
	case "stores", "datasets":
		if len(rest) == 1 {
			return "/v1/" + rest[0]
		}
		mount := "/v1/" + rest[0] + "/{store}"
		if len(rest) == 2 {
			return mount
		}
		sub := rest[2:]
		switch sub[0] {
		case "store", "query":
			if len(sub) == 1 {
				return mount + "/" + sub[0]
			}
		case "frames":
			return frameRoute(mount+"/frames", sub[1:])
		}
	}
	return "other"
}

// frameRoute labels the frame resource family under base.
func frameRoute(base string, rest []string) string {
	switch len(rest) {
	case 0:
		return base
	case 1:
		return base + "/{label}"
	case 2:
		switch rest[1] {
		case "payload", "stats", "region":
			return base + "/{label}/" + rest[1]
		}
	}
	return "other"
}

// statusClass buckets an HTTP status for the class label.
func statusClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// TraceIDHeader is the response header echoing the request's trace ID,
// so a caller can quote it when filing a slow-query report. It is in
// canonical form.
const TraceIDHeader = "X-Goblaz-Trace-Id"

// instrument is the outermost middleware: it establishes the request's
// trace identity (adopting a W3C traceparent when the client sent one,
// minting one otherwise), records the per-route × status-class metrics,
// and emits the access log — key=value by default, one JSON object per
// line with Options.LogJSON. It replaces the older plain access logger;
// metrics and tracing run even when logging is disabled.
func instrument(next http.Handler, opts Options) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
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

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, req.WithContext(ctx))
		dur := time.Since(start)

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		route, class := routeLabel(req.URL.Path), statusClass(status)
		httpRequests.With(route, class).Inc()
		httpSeconds.With(route, class).ObserveDuration(dur)
		span.End()

		if opts.Logf == nil {
			return
		}
		if opts.LogJSON {
			blob, err := json.Marshal(accessRecord{
				Method:   req.Method,
				Path:     req.URL.Path,
				Status:   status,
				Bytes:    sw.bytes,
				Duration: dur.Round(time.Microsecond).String(),
				Trace:    sc.TraceID.String(),
			})
			if err == nil {
				opts.Logf("%s", blob)
			}
			return
		}
		opts.Logf("method=%s path=%s status=%d bytes=%d dur=%s trace=%s",
			req.Method, req.URL.Path, status, sw.bytes,
			dur.Round(time.Microsecond), sc.TraceID)
	})
}

// accessRecord is the JSON access-log line (-log-json).
type accessRecord struct {
	Method   string `json:"method"`
	Path     string `json:"path"`
	Status   int    `json:"status"`
	Bytes    int64  `json:"bytes"`
	Duration string `json:"dur"`
	Trace    string `json:"trace"`
}

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsProm serves a registry in Prometheus text format — mounted at
// GET /metrics (opt-in on the main listener, always on the debug
// listener).
func MetricsProm(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		reg.WriteProm(w)
	})
}

// MetricsJSON serves a registry snapshot as JSON — mounted at
// GET /v1/debug/metrics; goblaz metrics -json fetches and prints it.
func MetricsJSON(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
}

// retryAfterValue renders the Retry-After header for an overloaded
// error: the limiter's p50-derived advice when present, else 1s.
func retryAfterValue(secs int) string {
	if secs <= 0 {
		return "1"
	}
	return strconv.Itoa(secs)
}
