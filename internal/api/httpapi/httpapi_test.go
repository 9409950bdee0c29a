package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

func buildLocal(t testing.TB, n, rows, cols int) *api.Local {
	t.Helper()
	return buildLocalSpec(t, "goblaz:block=4x4,float=float64,index=int16", n, rows, cols)
}

// buildLocalSpec serves n frames written with the codec spec names.
func buildLocalSpec(t testing.TB, spec string, n, rows, cols int) *api.Local {
	t.Helper()
	coder, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		f := tensor.New(rows, cols)
		for i := range f.Data() {
			f.Data()[i] = math.Sin(float64(i)/7 + float64(k))
		}
		c, err := coder.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return api.NewLocal(r, query.New(r, query.Options{}).Run)
}

// decodeEnvelope asserts resp is a JSON error envelope and returns it.
func decodeEnvelope(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("response is not an error envelope: %v", err)
	}
	return env.Error
}

func TestErrorEnvelopes(t *testing.T) {
	srv := httptest.NewServer(New(buildLocal(t, 2, 8, 8), nil, Options{}))
	defer srv.Close()
	cases := []struct {
		method, path, body string
		status             int
		code               api.Code
	}{
		{"GET", "/v1/frames/banana", "", 400, api.CodeBadRequest},
		{"GET", "/v1/frames/9", "", 404, api.CodeNotFound},
		{"GET", "/v1/frames/9/stats", "", 404, api.CodeNotFound},
		{"GET", "/v1/frames/0/region?offset=a&shape=1", "", 400, api.CodeBadRequest},
		{"GET", "/v1/frames/0/region?offset=9,9&shape=4,4", "", 400, api.CodeBadRequest},
		{"POST", "/v1/query", `{not json`, 400, api.CodeBadRequest},
		{"POST", "/v1/query", `{"aggregates":["median"]}`, 400, api.CodeBadRequest},
		{"POST", "/v1/query", `{"reduce":["mean"]}{"aggregates":["bogus"]} trailing garbage`, 400, api.CodeBadRequest},
		{"POST", "/v1/query", `{"reduce":["mean"]} x`, 400, api.CodeBadRequest},
		{"GET", "/v1/stores/nope/frames", "", 404, api.CodeNotFound},
		// No pattern matches: the mux's own refusals carry the envelope too.
		{"GET", "/", "", 404, api.CodeNotFound},
		{"GET", "/v1/frames/0/nope", "", 404, api.CodeNotFound},
		{"GET", "/v1/query", "", 405, api.CodeBadRequest},
		{"DELETE", "/v1/frames/0", "", 405, api.CodeBadRequest},
	}
	for _, cse := range cases {
		req, _ := http.NewRequest(cse.method, srv.URL+cse.path, strings.NewReader(cse.body))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != cse.status {
			t.Errorf("%s %s = %d, want %d", cse.method, cse.path, resp.StatusCode, cse.status)
		}
		if allow := resp.Header.Get("Allow"); (cse.status == 405) != (allow != "") {
			t.Errorf("%s %s = %d with Allow %q", cse.method, cse.path, resp.StatusCode, allow)
		}
		if e := decodeEnvelope(t, resp); e.Code != cse.code {
			t.Errorf("%s %s code = %s, want %s", cse.method, cse.path, e.Code, cse.code)
		}
	}
}

func TestMultiStoreMounts(t *testing.T) {
	a, b := buildLocal(t, 2, 8, 8), buildLocal(t, 3, 8, 8)
	srv := httptest.NewServer(New(a, map[string]api.Backend{"run-a": a, "run-b": b}, Options{}))
	defer srv.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	list := get("/v1/stores")
	if fmt.Sprint(list["stores"]) != "[run-a run-b]" {
		t.Errorf("store list = %v", list)
	}
	if got := get("/v1/stores/run-b")["frames"]; got != float64(3) {
		t.Errorf("run-b frames = %v, want 3", got)
	}
	if got := get("/v1/stores/run-a/store")["frames"]; got != float64(2) {
		t.Errorf("run-a frames = %v, want 2", got)
	}
	// The default mount serves store a alongside the named ones.
	if got := get("/v1/store")["frames"]; got != float64(2) {
		t.Errorf("default frames = %v, want 2", got)
	}
	// Named query route works end to end.
	resp, err := srv.Client().Post(srv.URL+"/v1/stores/run-b/query", "application/json",
		strings.NewReader(`{"aggregates":["mean"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res query.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || len(res.Frames) != 3 {
		t.Errorf("named query = %d frames, %v", len(res.Frames), err)
	}
}

func TestDatasetMounts(t *testing.T) {
	// The dataset mount family is plain routing: any Backend serves
	// under /v1/datasets/{name}/ (the sharded backend's end-to-end HTTP
	// behavior is covered by the conformance suite).
	a, b := buildLocal(t, 2, 8, 8), buildLocal(t, 3, 8, 8)
	srv := httptest.NewServer(New(a, map[string]api.Backend{"run": a}, Options{
		Datasets: map[string]api.Backend{"ds": b},
	}))
	defer srv.Close()

	get := func(path string, want int) *http.Response {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, want, body)
		}
		return resp
	}

	resp := get("/v1/datasets", 200)
	var list map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || fmt.Sprint(list["datasets"]) != "[ds]" {
		t.Errorf("dataset list = %v, %v", list, err)
	}
	resp.Body.Close()

	resp = get("/v1/datasets/ds", 200)
	var info api.StoreInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.Frames != 3 {
		t.Errorf("dataset root = %+v, %v", info, err)
	}
	resp.Body.Close()

	get("/v1/datasets/ds/frames/1/stats", 200).Body.Close()
	get("/v1/datasets/nope/frames", 404).Body.Close()
	// A dataset name does not leak into the store mount family.
	get("/v1/stores/ds/frames", 404).Body.Close()

	qresp, err := srv.Client().Post(srv.URL+"/v1/datasets/ds/query", "application/json",
		strings.NewReader(`{"aggregates":["mean"],"reduce":["mean"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var res query.Result
	if err := json.NewDecoder(qresp.Body).Decode(&res); err != nil || len(res.Frames) != 3 || res.Reduced == nil {
		t.Errorf("dataset query = %d frames, reduced %v, %v", len(res.Frames), res.Reduced, err)
	}
}

func TestStatsAndRegionETag(t *testing.T) {
	// Satellite: the 304 revalidation path, previously frame/payload
	// only, covers the stats and region resources too.
	srv := httptest.NewServer(New(buildLocal(t, 2, 16, 16), nil, Options{}))
	defer srv.Close()
	for _, path := range []string{
		"/v1/frames/0/stats",
		"/v1/frames/0/region?offset=1,1&shape=2,2",
		"/v1/frames/0",
		"/v1/frames/0/payload",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if len(etag) != 10 || etag[0] != '"' {
			t.Fatalf("GET %s ETag = %q, want quoted crc32", path, etag)
		}
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("GET %s revalidation = %d with %dB body, want bare 304", path, resp.StatusCode, len(body))
		}
	}
}

// panicBackend implements api.Backend by panicking; it proves the
// recovery middleware turns handler panics into 500 envelopes.
type panicBackend struct{}

func (panicBackend) Spec(context.Context) (api.StoreInfo, error) { panic("boom") }
func (panicBackend) Frames(context.Context) ([]api.FrameInfo, error) {
	return nil, api.Errorf(api.CodeInternal, "x")
}
func (panicBackend) FrameInfo(context.Context, int) (api.FrameInfo, error) { panic("boom") }
func (panicBackend) Frame(context.Context, int) (*api.Frame, error)        { panic("boom") }
func (panicBackend) Payload(context.Context, int) ([]byte, error)          { panic("boom") }
func (panicBackend) PayloadReader(context.Context, int) (io.ReadSeeker, error) {
	panic("boom")
}
func (panicBackend) Region(context.Context, int, []int, []int) (*query.FrameResult, error) {
	panic("boom")
}
func (panicBackend) Stats(context.Context, int, []string) (*query.FrameResult, error) {
	panic("boom")
}
func (panicBackend) Query(context.Context, *query.Request) (*query.Result, error) { panic("boom") }

func TestPanicRecovery(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	srv := httptest.NewServer(New(panicBackend{}, nil, Options{Logf: logf}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != api.CodeInternal || strings.Contains(e.Message, "boom") {
		t.Errorf("panic envelope leaked or misclassified: %+v", e)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawPanic, sawAccess bool
	for _, l := range lines {
		sawPanic = sawPanic || strings.Contains(l, "boom")
		sawAccess = sawAccess || (strings.Contains(l, "path=/v1/store") && strings.Contains(l, "status=500"))
	}
	if !sawPanic || !sawAccess {
		t.Errorf("log lines missing panic/access records: %q", lines)
	}
}

func TestBodyLimit(t *testing.T) {
	srv := httptest.NewServer(New(buildLocal(t, 1, 8, 8), nil, Options{}))
	defer srv.Close()
	big := `{"aggregates":["mean"],"point":[` + strings.Repeat("1,", maxRequestBytes/2) + `1]}`
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest || !strings.Contains(e.Message, strconv.Itoa(maxRequestBytes)) {
		t.Errorf("body-limit envelope = %+v", e)
	}
}

func TestInvalidRequestNeverShortCircuitsTo304(t *testing.T) {
	// A bogus request with a matching If-None-Match must answer its
	// validation error, not 304 — and the error must not carry the ETag.
	srv := httptest.NewServer(New(buildLocal(t, 1, 8, 8), nil, Options{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/frames/0/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")

	req, _ := http.NewRequest("GET", srv.URL+"/v1/frames/0/stats?aggs=bogus", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("bogus aggs with matching If-None-Match = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != "" {
		t.Errorf("error response carries ETag %q", got)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest {
		t.Errorf("code = %s", e.Code)
	}
}

// TestFrameRoutesWithoutResolver serves the per-frame routes from a
// backend with no label index of its own: a Client, whose FrameInfo
// scans the index another server serves.
func TestFrameRoutesWithoutResolver(t *testing.T) {
	inner := httptest.NewServer(New(buildLocal(t, 3, 8, 8), nil, Options{}))
	defer inner.Close()
	c, err := api.NewClient(inner.URL, api.ClientOptions{HTTPClient: inner.Client()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(c, nil, Options{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/frames/2/stats?aggs=mean")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats via scan fallback = %d", resp.StatusCode)
	}
	var fr query.FrameResult
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil || fr.Label != 2 {
		t.Errorf("fallback stats = %+v, %v", fr, err)
	}
	missing, err := srv.Client().Get(srv.URL + "/v1/frames/9/stats")
	if err != nil {
		t.Fatal(err)
	}
	if missing.StatusCode != 404 {
		t.Errorf("missing frame via scan fallback = %d, want 404", missing.StatusCode)
	}
	if e := decodeEnvelope(t, missing); e.Code != api.CodeNotFound {
		t.Errorf("code = %s", e.Code)
	}
}

// slowBackend blocks in Query until its context ends, standing in for a
// long compressed-domain plan.
type slowBackend struct{ api.Backend }

func (s slowBackend) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	<-ctx.Done()
	return nil, api.FromError(ctx.Err())
}

func TestRequestTimeoutCancelsWork(t *testing.T) {
	srv := httptest.NewServer(New(slowBackend{buildLocal(t, 1, 8, 8)}, nil,
		Options{RequestTimeout: 20 * time.Millisecond}))
	defer srv.Close()
	start := time.Now()
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"aggregates":["mean"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("request deadline did not fire (%s)", took)
	}
	if resp.StatusCode != api.StatusClientClosedRequest {
		t.Fatalf("timed-out request = %d, want %d", resp.StatusCode, api.StatusClientClosedRequest)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeCanceled {
		t.Errorf("code = %s, want canceled", e.Code)
	}
}

func TestAccessLogFields(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	srv := httptest.NewServer(New(buildLocal(t, 1, 8, 8), nil, Options{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/frames")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("access log = %q", lines)
	}
	for _, want := range []string{"method=GET", "path=/v1/frames", "status=200", "bytes=", "dur=", "trace="} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("access log line missing %q: %q", want, lines[0])
		}
	}
	// The logged trace ID matches the response header, so a log line
	// can be joined back to the client that saw it.
	trace := resp.Header.Get(TraceIDHeader)
	if trace == "" || !strings.Contains(lines[0], "trace="+trace) {
		t.Errorf("trace header %q not in log line %q", trace, lines[0])
	}
}

func TestAccessLogJSON(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	srv := httptest.NewServer(New(buildLocal(t, 1, 8, 8), nil, Options{
		LogJSON: true,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/frames")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("access log = %q", lines)
	}
	var rec struct {
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
		Bytes  int64  `json:"bytes"`
		Dur    string `json:"dur"`
		Trace  string `json:"trace"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v in %q", err, lines[0])
	}
	if rec.Method != "GET" || rec.Path != "/v1/frames" || rec.Status != 200 || rec.Bytes == 0 || rec.Dur == "" {
		t.Errorf("unexpected record %+v", rec)
	}
	if rec.Trace != resp.Header.Get(TraceIDHeader) {
		t.Errorf("trace = %q, header = %q", rec.Trace, resp.Header.Get(TraceIDHeader))
	}
}

func TestByteServingHeadersAndRange(t *testing.T) {
	// Payload and frame routes serve through http.ServeContent: the
	// declared length, Accept-Ranges, and honored Range requests are part
	// of the wire contract tools like curl -C and parallel fetchers rely
	// on.
	srv := httptest.NewServer(New(buildLocal(t, 2, 8, 8), nil, Options{}))
	defer srv.Close()

	for _, path := range []string{"/v1/frames/0/payload", "/v1/frames/0"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		full, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(full)) {
			t.Errorf("%s Content-Length = %q, want %d", path, got, len(full))
		}
		if got := resp.Header.Get("Accept-Ranges"); got != "bytes" {
			t.Errorf("%s Accept-Ranges = %q, want bytes", path, got)
		}
		if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
			t.Errorf("%s Content-Type = %q", path, got)
		}

		// A bounded Range must come back 206 with exactly those bytes.
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set("Range", "bytes=3-9")
		resp, err = srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		part, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s with Range = %d, want 206", path, resp.StatusCode)
		}
		if want := fmt.Sprintf("bytes 3-9/%d", len(full)); resp.Header.Get("Content-Range") != want {
			t.Errorf("%s Content-Range = %q, want %q", path, resp.Header.Get("Content-Range"), want)
		}
		if !bytes.Equal(part, full[3:10]) {
			t.Errorf("%s range bytes do not match the full body slice", path)
		}

		// An open-ended suffix range resumes from an offset, the way a
		// restarted download would.
		req, _ = http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(full)-5))
		resp, err = srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(tail, full[len(full)-5:]) {
			t.Errorf("%s suffix range = %d, %d bytes", path, resp.StatusCode, len(tail))
		}
	}

	// An unsatisfiable range reports the full size so clients resync.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/frames/0/payload", nil)
	req.Header.Set("Range", "bytes=999999999-")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("unsatisfiable range = %d, want 416", resp.StatusCode)
	}
}

func TestReadyzGate(t *testing.T) {
	// /readyz answers 503 until Ready reports true; /healthz never
	// gates. This is the contract cluster health probes rely on.
	var ready atomic.Bool
	srv := httptest.NewServer(New(buildLocal(t, 2, 8, 8), nil, Options{Ready: ready.Load}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /readyz = %d, want 503", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeUnavailable {
		t.Errorf("not-ready /readyz code = %q, want %q", e.Code, api.CodeUnavailable)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while not ready = %d, want 200", resp.StatusCode)
	}

	ready.Store(true)
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ready\n" {
		t.Errorf("ready /readyz = %d %q", resp.StatusCode, body)
	}

	// Nil Ready means always ready — the single-store serve default.
	always := httptest.NewServer(New(buildLocal(t, 1, 8, 8), nil, Options{}))
	defer always.Close()
	resp, err = http.Get(always.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("nil-Ready /readyz = %d, want 200", resp.StatusCode)
	}
}
