package httpapi

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// Registry families for the HTTP surface: request counts and latency
// by route pattern × status class. The route label is the matched
// pattern's path (see Handler.handle); anything unmatched is "other".
var (
	httpRequests = obs.NewCounterVec("goblaz_http_requests_total",
		"HTTP requests served, by route pattern and status class.", "route", "class")
	httpSeconds = obs.NewHistogramVec("goblaz_http_request_seconds",
		"HTTP request latency in seconds, by route pattern and status class.", nil, "route", "class")
)

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
