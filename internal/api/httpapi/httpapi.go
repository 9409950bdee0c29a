// Package httpapi binds the transport-agnostic v1 contract
// (internal/api) to HTTP. It owns routing, the JSON error envelope,
// conditional requests (ETag / If-None-Match), and the middleware
// stack — panic recovery, access logging, request body limits, and
// per-request deadlines. It holds no business logic: every route calls
// an api.Backend, so the same handler serves a local store or proxies
// another server.
//
// Routes (also mounted per named store under /v1/stores/{store}/...
// and per named sharded dataset under /v1/datasets/{dataset}/...):
//
//	GET  /healthz                   liveness
//	GET  /readyz                    readiness (503 until mounts are open)
//	GET  /v1/stores                 named store list
//	GET  /v1/datasets               named dataset list
//	GET  /v1/store                  {"spec": ..., "frames": n}
//	GET  /v1/frames                 JSON frame index
//	GET  /v1/frames/{label}         little-endian float64 bytes;
//	                                X-Goblaz-Shape header; ETag
//	GET  /v1/frames/{label}/payload raw compressed payload; ETag
//	GET  /v1/frames/{label}/stats   aggregates (?aggs=mean,...); ETag
//	GET  /v1/frames/{label}/region  sub-array (?offset=..&shape=..); ETag
//	POST /v1/query                  compressed-domain query
//	POST /v1/frames                 streaming ingest (backends with the
//	                                api.Ingestor capability): a binary
//	                                api.FramesContentType batch, or one
//	                                frame object / an NDJSON batch
//
// Every error response is the JSON envelope {"error": {"code", ...}}
// with a stable api.Code mapped to its HTTP status — no plain-text
// bodies, no internal error text on the wire.
package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/query"
)

// Options configures the handler.
type Options struct {
	// MaxRequestBytes bounds request bodies (default 1 MiB).
	MaxRequestBytes int64
	// RequestTimeout, when > 0, deadlines every request's context, so a
	// stuck query cannot pin a connection past it.
	RequestTimeout time.Duration
	// Logf receives one access-log line per request (and panic
	// reports); nil disables logging.
	Logf func(format string, args ...any)
	// LogJSON switches the access log from key=value lines to one JSON
	// object per line.
	LogJSON bool
	// ExposeMetrics additionally mounts Prometheus text exposition at
	// GET /metrics on this handler. The JSON snapshot at
	// /v1/debug/metrics is always mounted; this opt-in is for
	// deployments that scrape the main listener instead of running a
	// debug listener.
	ExposeMetrics bool
	// Registry is the metrics registry the exposition routes serve;
	// nil means obs.Default, which is where every instrumented layer
	// records.
	Registry *obs.Registry
	// Datasets names sharded-dataset mounts, served under
	// /v1/datasets/{name}/ with the full resource set. A dataset
	// backend (api.OpenSharded) may also be passed as def or among the
	// stores — the contract is the same Backend either way; this mount
	// family only keeps datasets addressable as what they are.
	Datasets map[string]api.Backend
	// Ready gates GET /readyz: the route answers 503 unavailable until
	// Ready reports true, so cluster health probes (and load balancers)
	// don't route traffic to a server still opening its mounts. Nil
	// means always ready. /healthz stays unconditional — it answers
	// "this process is alive", /readyz answers "this process can take
	// traffic".
	Ready func() bool
}

// Handler serves one default store plus any number of named stores and
// named sharded datasets.
type Handler struct {
	def      api.Backend            // default store, "" name; may be nil
	stores   map[string]api.Backend // named mounts under /v1/stores/{name}
	datasets map[string]api.Backend // named mounts under /v1/datasets/{name}
	opts     Options
	mux      *http.ServeMux
}

// New builds the v1 HTTP handler. def serves the unprefixed routes
// (/v1/store, /v1/frames, ...); stores (may be nil) mount additionally
// under /v1/stores/{name}/, and opts.Datasets under
// /v1/datasets/{name}/. The same backend may appear in several places.
func New(def api.Backend, stores map[string]api.Backend, opts Options) http.Handler {
	if opts.MaxRequestBytes <= 0 {
		opts.MaxRequestBytes = 1 << 20
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	h := &Handler{def: def, stores: stores, datasets: opts.Datasets, opts: opts, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	h.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		if opts.Ready == nil || opts.Ready() {
			fmt.Fprintln(w, "ready")
			return
		}
		writeError(w, api.Errorf(api.CodeUnavailable, "server is not ready"))
	})
	h.mux.Handle("GET /v1/debug/metrics", MetricsJSON(opts.Registry))
	if opts.ExposeMetrics {
		h.mux.Handle("GET /metrics", MetricsProm(opts.Registry))
	}
	h.mux.HandleFunc("GET /v1/stores", h.handleStoreList)
	h.mux.HandleFunc("GET /v1/datasets", h.handleDatasetList)

	// Each resource registers three times: on the default mount and
	// under the named-store and named-dataset prefixes, resolved per
	// request.
	for _, m := range []struct {
		method, path string
		fn           resourceFunc
	}{
		{"GET", "/store", (*Handler).handleStore},
		{"GET", "/frames", (*Handler).handleFrames},
		{"GET", "/frames/{label}", (*Handler).handleFrame},
		{"GET", "/frames/{label}/payload", (*Handler).handlePayload},
		{"GET", "/frames/{label}/stats", (*Handler).handleStats},
		{"GET", "/frames/{label}/region", (*Handler).handleRegion},
		{"POST", "/query", (*Handler).handleQuery},
		{"POST", "/frames", (*Handler).handleIngest},
	} {
		h.mux.HandleFunc(m.method+" /v1"+m.path, h.resolve(m.fn, h.defaultMount))
		h.mux.HandleFunc(m.method+" /v1/stores/{store}"+m.path, h.resolve(m.fn, h.storeMount))
		h.mux.HandleFunc(m.method+" /v1/datasets/{store}"+m.path, h.resolve(m.fn, h.datasetMount))
	}
	// The named roots double as their StoreInfo resources.
	h.mux.HandleFunc("GET /v1/stores/{store}", h.resolve((*Handler).handleStore, h.storeMount))
	h.mux.HandleFunc("GET /v1/datasets/{store}", h.resolve((*Handler).handleStore, h.datasetMount))
	return withMiddleware(h.mux, opts)
}

// resourceFunc is one v1 resource: it answers for the resolved backend
// and returns an error to be rendered as the JSON envelope.
type resourceFunc func(h *Handler, b api.Backend, w http.ResponseWriter, req *http.Request) error

// The mount families a request can resolve through.
func (h *Handler) defaultMount(req *http.Request) api.Backend { return h.def }
func (h *Handler) storeMount(req *http.Request) api.Backend {
	return h.stores[req.PathValue("store")]
}
func (h *Handler) datasetMount(req *http.Request) api.Backend {
	return h.datasets[req.PathValue("store")]
}

// resolve picks the backend through the mount family and funnels the
// resource's error into the envelope.
func (h *Handler) resolve(fn resourceFunc, mount func(*http.Request) api.Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		b := mount(req)
		if b == nil {
			writeError(w, api.Errorf(api.CodeNotFound, "no such store"))
			return
		}
		if err := fn(h, b, w, req); err != nil {
			writeError(w, err)
		}
	}
}

func (h *Handler) handleStoreList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, map[string]any{"stores": mountNames(h.stores)})
}

func (h *Handler) handleDatasetList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, map[string]any{"datasets": mountNames(h.datasets)})
}

func mountNames(mounts map[string]api.Backend) []string {
	names := make([]string, 0, len(mounts))
	for name := range mounts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (h *Handler) handleStore(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	info, err := b.Spec(req.Context())
	if err != nil {
		return err
	}
	writeJSON(w, info)
	return nil
}

func (h *Handler) handleFrames(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	infos, err := b.Frames(req.Context())
	if err != nil {
		return err
	}
	writeJSON(w, infos)
	return nil
}

// frameInfo resolves the {label} path segment against the backend's
// index: the canonical decimal label ("01" resolves to 1), not a glob.
func frameInfo(ctx context.Context, b api.Backend, req *http.Request) (api.FrameInfo, error) {
	label, err := strconv.Atoi(req.PathValue("label"))
	if err != nil {
		return api.FrameInfo{}, api.Errorf(api.CodeBadRequest, "bad frame label %q", req.PathValue("label"))
	}
	return b.FrameInfo(ctx, label)
}

// notModified writes the frame's ETag — derived from the payload CRC in
// the store footer, which changes exactly when any derived
// representation (bytes, stats, regions) does — and answers 304 when
// If-None-Match matches. true means the response is complete.
func notModified(w http.ResponseWriter, req *http.Request, e api.FrameInfo) bool {
	etag := `"` + e.CRC32 + `"`
	w.Header()["Etag"] = []string{etag} // the canonical key, set without canonicalizing
	for rest := req.Header.Get("If-None-Match"); rest != ""; {
		var tag string
		tag, rest, _ = strings.Cut(rest, ",")
		tag = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(tag), "W/"))
		if tag == etag || tag == "*" {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

func (h *Handler) handleFrame(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	info, err := frameInfo(req.Context(), b, req)
	if err != nil {
		return err
	}
	if notModified(w, req, info) {
		return nil
	}
	f, err := b.Frame(req.Context(), info.Label)
	if err != nil {
		return err
	}
	shape := make([]string, len(f.Shape))
	for d, e := range f.Shape {
		shape[d] = strconv.Itoa(e)
	}
	raw := make([]byte, len(f.Data)*8)
	for j, v := range f.Data {
		binary.LittleEndian.PutUint64(raw[j*8:], math.Float64bits(v))
	}
	w.Header()["Content-Type"] = octetContentType
	w.Header().Set("X-Goblaz-Shape", strings.Join(shape, ","))
	serveBytes(w, req, bytes.NewReader(raw))
	return nil
}

// octetContentType is the shared Content-Type value of the byte routes
// (see jsonContentType).
var octetContentType = []string{"application/octet-stream"}

// serveBytes hands a fully-validated body to http.ServeContent, which
// supplies Content-Length, Accept-Ranges: bytes, and Range (206)
// handling. The Content-Type is set by the caller beforehand so the
// sniffer never runs; the zero modtime suppresses Last-Modified —
// frame freshness is governed by the CRC-derived ETag notModified
// already wrote.
func serveBytes(w http.ResponseWriter, req *http.Request, content io.ReadSeeker) {
	http.ServeContent(w, req, "", time.Time{}, content)
}

func (h *Handler) handlePayload(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	info, err := frameInfo(req.Context(), b, req)
	if err != nil {
		return err
	}
	if notModified(w, req, info) {
		return nil
	}
	// ServeContent seeks the positioned reader instead of materializing
	// the payload for Range requests; a memory-mapped store serves the
	// bytes zero-copy.
	content, err := b.PayloadReader(req.Context(), info.Label)
	if err != nil {
		return err
	}
	// A streamed payload may pin backend state (an ingest store pins the
	// read generation the section reads from); release it once served.
	if c, ok := content.(io.Closer); ok {
		defer c.Close()
	}
	w.Header()["Content-Type"] = octetContentType
	serveBytes(w, req, content)
	return nil
}

func (h *Handler) handleStats(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	info, err := frameInfo(req.Context(), b, req)
	if err != nil {
		return err
	}
	var aggs []string
	if v := req.FormValue("aggs"); v != "" {
		aggs = strings.Split(v, ",")
		for _, kind := range aggs {
			// Validate names before the conditional-request check, so a
			// bogus request never short-circuits to 304.
			if !slices.Contains(api.AllAggregates, kind) {
				return api.Errorf(api.CodeBadRequest, "unknown aggregate %q", kind)
			}
		}
	}
	// Stats derive deterministically from the payload, so the payload
	// ETag governs them too: a dashboard polling stats revalidates with
	// 304s instead of recomputing aggregates.
	if notModified(w, req, info) {
		return nil
	}
	fr, err := b.Stats(req.Context(), info.Label, aggs)
	if err != nil {
		return err
	}
	writeResult(w, fr, query.AppendFrameResult)
	return nil
}

func (h *Handler) handleRegion(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	info, err := frameInfo(req.Context(), b, req)
	if err != nil {
		return err
	}
	offset, err := parseInts(req.FormValue("offset"))
	if err != nil {
		return api.Errorf(api.CodeBadRequest, "bad offset: %v", err)
	}
	shape, err := parseInts(req.FormValue("shape"))
	if err != nil {
		return api.Errorf(api.CodeBadRequest, "bad shape: %v", err)
	}
	// Bounds are only checked by the backend, after the 304 short
	// circuit — soundly so: the ETag fingerprints the payload that
	// determines the frame shape, so a genuinely matching ETag means
	// the cached 200 (and its bounds check) is still valid.
	if notModified(w, req, info) {
		return nil
	}
	fr, err := b.Region(req.Context(), info.Label, offset, shape)
	if err != nil {
		return err
	}
	writeResult(w, fr, query.AppendFrameResult)
	return nil
}

func (h *Handler) handleQuery(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	var qr query.Request
	if err := query.DecodeJSON(req.Body, &qr); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			return err // writeError owns the body-limit classification
		}
		return api.Errorf(api.CodeBadRequest, "bad query JSON: %v", err)
	}
	res, err := b.Query(req.Context(), &qr)
	if err != nil {
		return err
	}
	writeResult(w, res, query.AppendResult)
	return nil
}

// handleIngest hands one batch to the backend's Ingestor capability,
// which acknowledges only after the batch is durable. The Content-Type
// picks the parser: api.FramesContentType is the binary body
// (api.ParseFrames; what the Go SDK sends), read into one buffer;
// anything else is one frame object or an NDJSON batch (a stream of
// frame objects; a bare newline separator is optional — any
// concatenated-JSON stream parses). Either way the backend validates
// the frames, so both bodies fail a bad frame with the same message.
func (h *Handler) handleIngest(b api.Backend, w http.ResponseWriter, req *http.Request) error {
	ing, ok := b.(api.Ingestor)
	if !ok {
		return api.Errorf(api.CodeNotSupported, "backend does not accept ingest")
	}
	frames, err := readIngestBody(req, h.opts.MaxRequestBytes)
	if err != nil {
		return err
	}
	res, err := ing.Ingest(req.Context(), frames)
	if err != nil {
		return err
	}
	writeJSON(w, res)
	return nil
}

// readIngestBody parses the request body by its media type.
func readIngestBody(req *http.Request, limit int64) ([]api.IngestFrame, error) {
	mt, _, _ := strings.Cut(req.Header.Get("Content-Type"), ";")
	if !strings.EqualFold(strings.TrimSpace(mt), api.FramesContentType) {
		return readNDJSON(req.Body)
	}
	var body []byte
	var err error
	if n := req.ContentLength; n >= 0 && n <= limit {
		body = make([]byte, n)
		_, err = io.ReadFull(req.Body, body)
	} else {
		body, err = io.ReadAll(req.Body) // the body limit still applies
	}
	if err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			return nil, err // writeError owns the body-limit classification
		}
		return nil, api.Errorf(api.CodeBadRequest, "reading ingest body: %v", err)
	}
	return api.ParseFrames(body)
}

// readNDJSON decodes a stream of JSON frame objects up to the end of the
// body. Anything else in it — a stray `]` or `}`, trailing text — is a
// bad request, not the end of the batch.
func readNDJSON(body io.Reader) ([]api.IngestFrame, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var frames []api.IngestFrame
	for {
		var f api.IngestFrame
		err := dec.Decode(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			var maxBytes *http.MaxBytesError
			if errors.As(err, &maxBytes) {
				return nil, err // writeError owns the body-limit classification
			}
			return nil, api.Errorf(api.CodeBadRequest, "bad ingest frame JSON: %v", err)
		}
		frames = append(frames, f)
	}
	return frames, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// writeJSON encodes v to a buffer first, so an encoding failure becomes
// a clean error envelope instead of a truncated 200. It serves the cold
// resources (store info, frame index, metrics, ingest results); query
// results go through writeResult.
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		writeError(w, api.FromError(err))
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.Write(append(buf, '\n'))
}

// jsonContentType is the Content-Type value of every JSON response. It
// is shared: its len equals its cap, so a later Header.Add copies it
// instead of writing into it, and Header.Set replaces it.
var jsonContentType = []string{"application/json"}

// maxPooledBody caps the response buffers bodyPool keeps: a buffer grown
// past it by one large region is left to the collector instead of
// pinning its memory in the pool.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeResult writes a query result through its hand-written encoder
// into a pooled buffer — the same bytes, newline included, as writeJSON
// would write, without reflection and without a buffer per response.
func writeResult[T any](w http.ResponseWriter, v *T, appendJSON func([]byte, *T) []byte) {
	bp := bodyPool.Get().(*[]byte)
	body := append(appendJSON((*bp)[:0], v), '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.Write(body)
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
}

// writeError renders err as the v1 JSON envelope at its mapped status.
// Internal causes were already stripped by api.FromError — only the
// stable code and a safe message cross the wire.
func writeError(w http.ResponseWriter, err error) {
	// An ETag set before the failure (by notModified) must not ride on
	// the error: it validates the success representation only.
	w.Header().Del("ETag")
	apiErr := api.FromError(err)
	var maxBytes *http.MaxBytesError
	if errors.As(err, &maxBytes) {
		apiErr = api.Errorf(api.CodeBadRequest, "request body exceeds %d bytes", maxBytes.Limit)
	}
	if apiErr.Code == api.CodeOverloaded {
		// Shed requests were refused before executing: tell well-behaved
		// clients when to come back instead of letting them hammer. The
		// limiter stamps its queue-wait-p50 advice on the error; absent
		// that (an overload minted elsewhere), one second.
		w.Header().Set("Retry-After", retryAfterValue(apiErr.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(apiErr.HTTPStatus())
	blob, merr := json.Marshal(api.ErrorEnvelope{Error: apiErr})
	if merr != nil { // unreachable: Error is plain strings
		blob = []byte(`{"error":{"code":"internal","message":"internal error"}}`)
	}
	w.Write(append(blob, '\n'))
}
