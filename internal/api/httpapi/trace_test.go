package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/query"
)

// TestTraceparentClientToServer drives a query through the full path —
// api.Client injects traceparent, the middleware adopts it, the engine
// opens child spans — and asserts every server-side span carries the
// client-originated trace ID.
func TestTraceparentClientToServer(t *testing.T) {
	var mu sync.Mutex
	var recs []obs.SpanRecord
	obs.DefaultTracer.OnSpan(func(r obs.SpanRecord) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	})
	defer obs.DefaultTracer.OnSpan(nil)

	srv := httptest.NewServer(New(buildLocal(t, 2, 8, 8), nil, Options{}))
	defer srv.Close()
	client, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}

	root := obs.NewSpanContext()
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := client.Query(ctx, &query.Request{Aggregates: []string{query.AggMean}}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	spans := map[string]obs.SpanRecord{}
	for _, r := range recs {
		if r.Context.TraceID == root.TraceID {
			spans[r.Name] = r
		}
	}
	req, ok := spans["http.request"]
	if !ok {
		t.Fatalf("no http.request span with the client's trace ID; got %+v", recs)
	}
	if req.Context.SpanID == root.SpanID {
		t.Error("server reused the client's span ID instead of opening its own span")
	}
	if !strings.Contains(req.Detail, "/query") {
		t.Errorf("http.request detail = %q, want the query path", req.Detail)
	}
	if _, ok := spans["query.execute"]; !ok {
		t.Errorf("query.execute span did not inherit the trace; spans = %v", spans)
	}
}

// TestTraceMintedWhenAbsent: a request without traceparent still gets a
// trace ID, echoed in the response header.
func TestTraceMintedWhenAbsent(t *testing.T) {
	srv := httptest.NewServer(New(buildLocal(t, 1, 8, 8), nil, Options{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	trace := resp.Header.Get(TraceIDHeader)
	if len(trace) != 32 || trace == strings.Repeat("0", 32) {
		t.Fatalf("trace header = %q, want 32 hex chars", trace)
	}
}

// servedRoute sends one request through h and returns the route label
// it added to goblaz_http_requests_total, and the response.
func servedRoute(t testing.TB, h http.Handler, req *http.Request) (string, *httptest.ResponseRecorder) {
	t.Helper()
	before := routeCounts()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var routes []string
	for route, n := range routeCounts() {
		if n > before[route] {
			routes = append(routes, route)
		}
	}
	if len(routes) != 1 {
		t.Fatalf("%s %s moved the request counter of routes %q, want one", req.Method, req.URL.Path, routes)
	}
	return routes[0], rec
}

// routeCounts sums goblaz_http_requests_total by route over the status
// classes.
func routeCounts() map[string]float64 {
	counts := map[string]float64{}
	for _, m := range obs.Default.Snapshot().Metrics {
		if m.Name == "goblaz_http_requests_total" {
			for _, s := range m.Samples {
				counts[s.Labels["route"]] += s.Value
			}
		}
	}
	return counts
}

// routeHandler mounts one backend on every mount family.
func routeHandler(t testing.TB, logf func(string, ...any)) *Handler {
	b := buildLocal(t, 2, 8, 8)
	opts := Options{Datasets: map[string]api.Backend{"ds": b}, ExposeMetrics: true, Logf: logf}
	return New(b, map[string]api.Backend{"run": b}, opts).(*Handler)
}

// TestRouteLabel: a request is labelled with the path of the pattern
// that served it, whatever its path parameters, and anything no pattern
// matches is "other".
func TestRouteLabel(t *testing.T) {
	h := routeHandler(t, nil)
	for _, c := range []struct{ method, path, want string }{
		{"GET", "/healthz", "/healthz"},
		{"GET", "/metrics", "/metrics"},
		{"GET", "/v1/debug/metrics", "/v1/debug/metrics"},
		{"GET", "/v1/store", "/v1/store"},
		{"GET", "/v1/frames", "/v1/frames"},
		{"GET", "/v1/frames/1", "/v1/frames/{label}"},
		{"GET", "/v1/frames/1/payload", "/v1/frames/{label}/payload"},
		{"GET", "/v1/frames/1/stats", "/v1/frames/{label}/stats"},
		{"GET", "/v1/frames/17/region", "/v1/frames/{label}/region"},
		{"POST", "/v1/query", "/v1/query"},
		{"GET", "/v1/stores", "/v1/stores"},
		{"GET", "/v1/stores/run", "/v1/stores/{store}"},
		{"GET", "/v1/stores/run/frames/1", "/v1/stores/{store}/frames/{label}"},
		{"POST", "/v1/stores/run/query", "/v1/stores/{store}/query"},
		{"GET", "/v1/stores/nope/store", "/v1/stores/{store}/store"},
		{"GET", "/v1/datasets/ds/frames", "/v1/datasets/{store}/frames"},
		{"GET", "/v1/datasets/ds/frames/1/stats", "/v1/datasets/{store}/frames/{label}/stats"},
		{"GET", "/", "other"},
		{"GET", "/v1/query", "other"}, // 405: a known path, the wrong method
		{"GET", "/v1/bogus/deep/path", "other"},
		{"GET", "/favicon.ico", "other"},
		{"GET", "/v1/frames/17/nope", "other"},
	} {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader("{}"))
		if got, _ := servedRoute(t, h, req); got != c.want {
			t.Errorf("%s %s is labelled %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// knownCodes is every api.Code of the v1 contract.
var knownCodes = map[api.Code]bool{
	api.CodeBadRequest: true, api.CodeNotFound: true, api.CodeNotSupported: true, api.CodeCanceled: true,
	api.CodeConflict: true, api.CodeOverloaded: true, api.CodeUnavailable: true, api.CodeInternal: true,
}

// FuzzRouteLabels: no method and path panics the handler, every label
// is the path of the pattern the mux matched, or "other" — so the label
// set is bounded by the route table however hostile the traffic — and
// every error response, routed or not, is the JSON envelope with a
// known code.
func FuzzRouteLabels(f *testing.F) {
	for _, seed := range []struct{ method, path string }{
		{"GET", "/v1/frames/0/stats"},
		{"POST", "/v1/query"},
		{"GET", "/"},
		{"GET", "/v1/query"},
		{"DELETE", "/v1/stores/run"},
		{"GET", "/v1//store"},
		{"HEAD", "/healthz"},
		{"CONNECT", "/v1/store"},
		{"GET", "/v1/datasets/ds/frames/1/region"},
		{"POST", "/v1/datasets/ds/frames"},
	} {
		f.Add(seed.method, seed.path)
	}
	h := routeHandler(f, func(format string, args ...any) {
		if strings.HasPrefix(format, "panic") {
			panic(fmt.Sprintf(format, args...))
		}
	})
	f.Fuzz(func(t *testing.T, method, path string) {
		req := httptest.NewRequest("GET", "/", nil)
		req.Method, req.URL.Path = method, path
		_, pattern := h.mux.Handler(req)
		_, matched, _ := strings.Cut(pattern, " ")
		got, rec := servedRoute(t, h, req)
		if got != "other" && got != matched {
			t.Fatalf("%q %q is labelled %q; the mux matched %q", method, path, got, pattern)
		}
		if rec.Code >= 400 {
			var env api.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || !knownCodes[env.Error.Code] {
				t.Fatalf("%q %q answered %d with %q, not an error envelope with a known code", method, path, rec.Code, rec.Body)
			}
		}
	})
}
