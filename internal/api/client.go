package api

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
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// ClientOptions tunes the HTTP SDK. The zero value gives 2 retries
// with doubling backoff and no per-attempt timeout (the caller's
// context is the only bound, so long queries behave like Local ones).
type ClientOptions struct {
	// HTTPClient overrides the transport (e.g. a httptest server's
	// client). Its own Timeout, if set, stacks with Timeout below.
	HTTPClient *http.Client
	// Timeout bounds each attempt (not the whole retry loop; bound that
	// with the caller's context). ≤ 0 means no per-attempt bound — the
	// caller's context is the only limit, matching a Local backend,
	// where a long query runs as long as it needs.
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried. Only
	// transport errors and gateway statuses (502/503/504) requeue —
	// a 500 is a deterministic server-side failure (e.g. a corrupt
	// frame) that a replay would only re-execute; < 0 disables retries.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt.
	// ≤ 0 means 100 ms.
	Backoff time.Duration
}

// defaultHTTPClient backs every Client constructed without an explicit
// HTTPClient. It is shared deliberately: connection pooling only helps
// if clients pool together, and a cluster coordinator builds one Client
// per replica endpoint, all usually pointing at a handful of hosts.
// http.DefaultTransport's 2 idle conns per host would serialize a
// scatter the moment per-shard concurrency passes 2, so the pool is
// raised to cover a wide fan-out and idle conns are reaped on an
// explicit clock instead of the transport default.
var defaultHTTPClient = &http.Client{Transport: newDefaultTransport()}

func newDefaultTransport() *http.Transport {
	base, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		base = &http.Transport{}
	}
	tr := base.Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return tr
}

// Client is the Go SDK for the v1 HTTP API — the transport-backed
// Backend. It is safe for concurrent use.
type Client struct {
	base    string // no trailing slash
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
}

// NewClient returns a client for the API served at baseURL. A bare
// server URL ("http://localhost:8080") targets the default /v1 mount;
// a mount URL ("http://host/v1/stores/run") targets that named store —
// resource paths are relative to the mount, so the same client code
// works on both.
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, Errorf(CodeBadRequest, "base URL %q is not http(s)", baseURL)
	}
	base := strings.TrimRight(baseURL, "/")
	if u.Path == "" || u.Path == "/" {
		base += "/v1"
	}
	c := &Client{
		base:    base,
		hc:      opts.HTTPClient,
		timeout: opts.Timeout,
		retries: opts.Retries,
		backoff: opts.Backoff,
	}
	if c.hc == nil {
		c.hc = defaultHTTPClient
	}
	if c.retries == 0 {
		c.retries = 2
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.backoff <= 0 {
		c.backoff = 100 * time.Millisecond
	}
	return c, nil
}

// retryableStatus reports whether a status is worth retrying: gateway
// hiccups and overload. 429 is the admission controller shedding load —
// the request never executed, so a backed-off replay is safe and is
// exactly what Retry-After asks for. Not 500 — the v1 server answers it
// only for deterministic failures, so a replay re-runs the whole
// (possibly expensive) query just to fail identically.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfterOf parses a Retry-After header into the server-requested
// pause; 0 when absent or unparseable, so callers fall back to their
// own backoff. Both forms RFC 9110 allows are accepted: delta-seconds
// ("120") and an HTTP-date ("Fri, 08 Aug 2026 14:00:00 GMT"), the
// latter converted to a delay against the local clock — a date already
// in the past (or a skewed clock) yields 0 rather than a negative
// pause.
func retryAfterOf(resp *http.Response) time.Duration {
	h := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// maxBackoff caps the exponential retry delay: past it, waiting longer
// conveys no more politeness, and an uncapped shift would overflow
// time.Duration after ~33 doublings of the default backoff — a
// negative delay that time.After treats as zero, turning a client
// retrying against a long outage into a hot loop hammering the server
// it is supposed to be backing off from.
const maxBackoff = 30 * time.Second

// backoffDelay is the capped exponential schedule: base<<attempt,
// clamped to maxBackoff. The overflow check compares against the cap
// shifted the other way, so the wrap is detected without ever
// computing a wrapped value.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt >= 63 || base > maxBackoff>>attempt {
		return maxBackoff
	}
	return base << attempt
}

// do runs one API call with per-attempt timeout and retry. path is
// relative to the mount and carries its encoded query string, if any.
// On success the caller owns resp.Body; on failure the returned error is
// already classified (*Error).
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	resp, _, err := c.doWith(ctx, method, path, body, jsonContentType)
	return resp, err
}

// The request Content-Type values. They are shared by every request: their
// len equals their cap, so a later Header.Add copies instead of writing
// into them.
var (
	jsonContentType   = []string{"application/json"}
	framesContentType = []string{FramesContentType}
)

// doWith is do with an explicit request Content-Type (Ingest sends
// FramesContentType). The replayed result reports whether any attempt
// after a transport error was issued: a transport error leaves the server's
// outcome unknown, so a later attempt may be a replay of a request the
// server already executed — Ingest uses this to tell a replayed
// duplicate from a genuine one.
func (c *Client) doWith(ctx context.Context, method, path string, body []byte, contentType []string) (resp *http.Response, replayed bool, _ error) {
	u := c.base + path
	var lastErr error
	sawTransportErr := false
	for attempt := 0; ; attempt++ {
		replayed = replayed || sawTransportErr
		var retryAfter time.Duration
		resp, err := c.attempt(ctx, method, u, body, contentType)
		switch {
		case err == nil && resp.StatusCode < 400:
			return resp, replayed, nil
		case err == nil:
			apiErr := decodeErrorResponse(resp)
			retryAfter = retryAfterOf(resp)
			resp.Body.Close()
			if !retryableStatus(resp.StatusCode) {
				return nil, replayed, apiErr
			}
			lastErr = apiErr
		case ctx.Err() != nil:
			// The caller's context ended; its error, not the transport's.
			return nil, replayed, FromError(ctx.Err())
		default:
			sawTransportErr = true
			lastErr = &Error{Code: CodeInternal, Message: fmt.Sprintf("%s %s: %v", method, path, err), err: err}
		}
		if attempt >= c.retries {
			return nil, replayed, lastErr
		}
		// Honor a server-requested Retry-After when it asks for a longer
		// pause than the client's own exponential backoff.
		delay := backoffDelay(c.backoff, attempt)
		if retryAfter > delay {
			delay = retryAfter
		}
		select {
		case <-ctx.Done():
			return nil, replayed, FromError(ctx.Err())
		case <-time.After(delay):
		}
	}
}

// attempt issues a single HTTP request under the per-attempt timeout,
// when one is configured. Without one the caller's context is the only
// bound, and the request runs under it directly.
func (c *Client) attempt(ctx context.Context, method, u string, body []byte, contentType []string) (*http.Response, error) {
	actx, cancel := ctx, context.CancelFunc(nil)
	if c.timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if body != nil {
		req.Header["Content-Type"] = contentType
	}
	// Propagate the caller's trace across the wire (minting one when the
	// context has none), so a query shows up server-side under the trace
	// ID the caller logs. Each attempt is its own child span identity.
	sc, ok := obs.SpanContextFrom(ctx)
	if ok {
		sc = sc.Child()
	} else {
		sc = obs.NewSpanContext()
	}
	req.Header["Traceparent"] = []string{sc.Traceparent()}
	resp, err := c.hc.Do(req)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if cancel != nil {
		// Tie the timeout to body consumption: canceling at return would
		// kill the stream the caller is still reading.
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// decodeErrorResponse turns a non-2xx response into an *Error: the v1
// envelope when present, a synthesized code from the status otherwise
// (a proxy's bare 502, a non-API server). The code's sentinel is
// re-attached so errors.Is works identically on a Client error and a
// Local one — the cause cannot cross the wire, but the class can.
func decodeErrorResponse(resp *http.Response) *Error {
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env ErrorEnvelope
	if err := json.Unmarshal(blob, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.err = sentinelOf(env.Error.Code)
		return env.Error
	}
	msg := strings.TrimSpace(string(blob))
	if msg == "" {
		msg = resp.Status
	}
	code := codeOfStatus(resp.StatusCode)
	return &Error{Code: code, Message: msg, err: sentinelOf(code)}
}

// getJSON runs a GET and decodes the JSON response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &Error{Code: CodeInternal, Message: fmt.Sprintf("decoding %s response: %v", path, err), err: err}
	}
	return nil
}

func (c *Client) Spec(ctx context.Context) (StoreInfo, error) {
	var info StoreInfo
	err := c.getJSON(ctx, "/store", &info)
	return info, err
}

func (c *Client) Frames(ctx context.Context) ([]FrameInfo, error) {
	var infos []FrameInfo
	if err := c.getJSON(ctx, "/frames", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// FrameInfo scans the served index for the label: the v1 API has no
// single-entry route.
func (c *Client) FrameInfo(ctx context.Context, label int) (FrameInfo, error) {
	infos, err := c.Frames(ctx)
	if err != nil {
		return FrameInfo{}, err
	}
	for _, e := range infos {
		if e.Label == label {
			return e, nil
		}
	}
	return FrameInfo{}, noFrame(label)
}

// maxPresize caps what a declared Content-Length may reserve before any
// byte arrives; a larger (or undeclared) body grows as it is read.
const maxPresize = 64 << 20

// Frame fetches and reassembles a decompressed frame from the binary
// route: little-endian float64 bytes plus the X-Goblaz-Shape header.
// The shape is checked against Content-Length before anything
// shape-sized is allocated, and the bytes are decoded through a small
// fixed chunk straight into the frame's data — no raw copy is kept.
func (c *Client) Frame(ctx context.Context, label int) (*Frame, error) {
	resp, err := c.do(ctx, http.MethodGet, "/frames/"+strconv.Itoa(label), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	shape, err := parseShapeHeader(resp.Header.Get("X-Goblaz-Shape"))
	if err != nil {
		return nil, err
	}
	n := 1
	for _, e := range shape {
		if n > math.MaxInt/8/e {
			return nil, Errorf(CodeInternal, "frame %d shape %v overflows", label, shape)
		}
		n *= e
	}
	if cl := resp.ContentLength; cl >= 0 && cl != int64(n)*8 {
		return nil, Errorf(CodeInternal, "frame %d body is %d bytes, shape %v needs %d", label, cl, shape, n*8)
	}
	data := make([]float64, 0, min(n, maxPresize/8))
	var chunk [512]byte
	for len(data) < n {
		k, err := io.ReadFull(resp.Body, chunk[:min(len(chunk), 8*(n-len(data)))])
		if err != nil {
			return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("frame %d body ended at %d bytes, shape %v needs %d: %v", label, 8*len(data)+k, shape, n*8, err), err: err}
		}
		for j := 0; j < k; j += 8 {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[j:])))
		}
	}
	if err := expectEOF(resp.Body, chunk[:1]); err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("frame %d body: %v", label, err), err: err}
	}
	return &Frame{Label: label, Shape: shape, Data: data}, nil
}

// expectEOF reports a body that runs past its expected length, reading
// at most len(probe) bytes of it.
func expectEOF(r io.Reader, probe []byte) error {
	switch k, err := io.ReadFull(r, probe); {
	case k > 0:
		return errors.New("body runs past its declared length")
	case err != io.EOF:
		return err
	}
	return nil
}

// readBody reads a response body into one buffer of its declared length
// when that is known and at most maxPresize; an early end or a longer
// body is an error either way.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared > maxPresize {
		blob, err := io.ReadAll(r)
		if err == nil && declared >= 0 && int64(len(blob)) != declared {
			err = fmt.Errorf("body is %d bytes, declared %d", len(blob), declared)
		}
		return blob, err
	}
	// One spare byte probes for a body longer than declared.
	blob := make([]byte, declared+1)
	if _, err := io.ReadFull(r, blob[:declared]); err != nil {
		return nil, err
	}
	return blob[:declared], expectEOF(r, blob[declared:])
}

func parseShapeHeader(h string) ([]int, error) {
	if h == "" {
		return nil, Errorf(CodeInternal, "frame response missing X-Goblaz-Shape header")
	}
	parts := strings.Split(h, ",")
	shape := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, Errorf(CodeInternal, "bad X-Goblaz-Shape header %q", h)
		}
		shape[i] = v
	}
	return shape, nil
}

// Payload fetches a frame's raw compressed bytes into one buffer of the
// declared Content-Length.
func (c *Client) Payload(ctx context.Context, label int) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/frames/"+strconv.Itoa(label)+"/payload", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("reading payload %d: %v", label, err), err: err}
	}
	return blob, nil
}

// PayloadReader fetches the payload whole (Payload) and reads it from
// memory.
func (c *Client) PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error) {
	blob, err := c.Payload(ctx, label)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(blob), nil
}

// decodeResult reads a result body into one buffer (readBody) and
// decodes it with parse, query's reader of the result type, which takes
// any body a json.Decoder takes — so the client accepts exactly the
// bodies it accepted when it decoded through json.Decoder.
func decodeResult[T any](resp *http.Response, what string, parse func([]byte) (*T, error)) (*T, error) {
	defer resp.Body.Close()
	blob, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("reading %s response: %v", what, err), err: err}
	}
	v, err := parse(blob)
	if err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("decoding %s response: %v", what, err), err: err}
	}
	return v, nil
}

func (c *Client) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	path := make([]byte, 0, 64)
	path = append(path, "/frames/"...)
	path = strconv.AppendInt(path, int64(label), 10)
	path = append(path, "/stats"...)
	for i, kind := range aggs {
		if i == 0 {
			path = append(path, "?aggs="...)
		} else {
			path = append(path, ',')
		}
		path = append(path, url.QueryEscape(kind)...)
	}
	resp, err := c.do(ctx, http.MethodGet, string(path), nil)
	if err != nil {
		return nil, err
	}
	return decodeResult(resp, "stats", query.ParseFrameResult)
}

// Region asks for offset=…&shape=… with the integers comma-joined: the
// server splits raw commas exactly as it splits their %2C escapes.
func (c *Client) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	path := make([]byte, 0, 64)
	path = append(path, "/frames/"...)
	path = strconv.AppendInt(path, int64(label), 10)
	path = append(path, "/region?offset="...)
	path = appendInts(path, offset)
	path = append(path, "&shape="...)
	path = appendInts(path, shape)
	resp, err := c.do(ctx, http.MethodGet, string(path), nil)
	if err != nil {
		return nil, err
	}
	return decodeResult(resp, "region", query.ParseFrameResult)
}

func (c *Client) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("encoding request: %v", err), err: err}
	}
	resp, err := c.do(ctx, http.MethodPost, "/query", body)
	if err != nil {
		return nil, err
	}
	return decodeResult(resp, "query", query.ParseResult)
}

// Ingest sends a batch of frames to the server's ingest route as one
// binary body (FramesContentType, built by AppendFrames: the floats
// travel as their bits, not as decimal text), so Client also satisfies
// the api.Ingestor capability — a producer pointed at a URL ingests
// exactly like one holding the store. A frame the body cannot carry
// (NaN or ±Inf, data that does not match its shape) fails with
// CodeBadRequest before anything is sent. A successful return carries
// the server's durability promise:
// the batch is fsynced in the write-ahead log. Retries are safe for
// shed requests (429/503: the server never executed them). A transport
// error leaves the first attempt's outcome unknown, so the retry may
// replay a batch the server durably accepted; the server rejects the
// replay per duplicate label (conflict), and the client then confirms
// against the committed frame index — if every label of the batch is
// present, the batch landed and Ingest reports success. A conflict
// whose labels are not all committed yet (accepted but pending) still
// surfaces as CodeConflict; producers seeing it after a retry should
// treat the batch as possibly stored and verify via Frames() before
// re-sending under fresh labels.
func (c *Client) Ingest(ctx context.Context, frames []IngestFrame) (*IngestResult, error) {
	body, err := AppendFrames(nil, frames)
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error(), err: err}
	}
	resp, replayed, err := c.doWith(ctx, http.MethodPost, "/frames", body, framesContentType)
	if err != nil {
		if replayed && CodeOf(err) == CodeConflict {
			if res, ok := c.confirmIngested(ctx, frames); ok {
				return res, nil
			}
		}
		return nil, err
	}
	defer resp.Body.Close()
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("decoding ingest response: %v", err), err: err}
	}
	return &res, nil
}

// confirmIngested checks a replayed-and-rejected batch against the
// server's committed frame index: when every label is present, the
// rejected replay was of a batch a prior (transport-errored) attempt
// delivered, and the synthesized result restores the durability promise
// the lost response carried.
func (c *Client) confirmIngested(ctx context.Context, frames []IngestFrame) (*IngestResult, bool) {
	infos, err := c.Frames(ctx)
	if err != nil {
		return nil, false
	}
	have := make(map[int]struct{}, len(infos))
	for _, fi := range infos {
		have[fi.Label] = struct{}{}
	}
	for _, f := range frames {
		if _, ok := have[f.Label]; !ok {
			return nil, false
		}
	}
	return &IngestResult{Accepted: len(frames), Committed: true, Frames: len(infos)}, true
}

// appendInts appends vals comma-joined.
func appendInts(dst []byte, vals []int) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}
