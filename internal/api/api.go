// Package api is the transport-agnostic service layer: it owns the v1
// contract that both the HTTP server (internal/api/httpapi) and every
// consumer — the goblaz CLI, tests, dashboards — program against.
//
// The contract has three parts. Backend is the service interface. Two
// implementations answer it directly: Local, the one in-process
// backend, over any Source (a store.Reader, a shard.Dataset) plus the
// function that runs its queries, and Client, the HTTP SDK — so a tool
// written against Backend works identically on a store path, a dataset
// manifest and a serving URL. The rest wrap those: Limit adds admission
// control around any Backend, ingest.Store pins a Local per committed
// generation of an appendable store, and cluster.Coordinator routes to
// one Client per shard server. Error is the typed, versioned error
// model: every failure carries a stable string Code that survives
// transport (rendered as a JSON envelope over HTTP) and maps
// deterministically to an HTTP status. All methods take a
// context.Context; cancellation propagates into compressed-domain work
// instead of letting it run for nobody.
package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
)

// Code is a stable, versioned error code. Codes are part of the v1
// contract: clients branch on them, so existing values never change
// meaning (new ones may be added).
type Code string

const (
	// CodeBadRequest marks failures that are the caller's: malformed
	// labels, unknown aggregates, out-of-bounds regions.
	CodeBadRequest Code = "bad_request"
	// CodeNotFound marks references to frames or stores that do not
	// exist.
	CodeNotFound Code = "not_found"
	// CodeNotSupported marks operations the backend cannot perform,
	// e.g. ingest into a read-only store.
	CodeNotSupported Code = "not_supported"
	// CodeCanceled marks work abandoned because the caller's context
	// was canceled or its deadline expired.
	CodeCanceled Code = "canceled"
	// CodeConflict marks writes that collide with existing state, e.g.
	// an ingest frame whose label the store already holds. The code is
	// distinct from bad_request because a replayed batch (a retry after
	// a transport error on a request the server had in fact accepted)
	// surfaces this way — clients can recognize it and verify rather
	// than fail hard on data that is safely stored.
	CodeConflict Code = "conflict"
	// CodeOverloaded marks requests shed by admission control: the
	// backend's concurrency limit and wait queue are both full, or the
	// request waited longer than the queue allows. The request was not
	// executed; retrying after a backoff is safe and expected (HTTP
	// responses carry Retry-After).
	CodeOverloaded Code = "overloaded"
	// CodeUnavailable marks requests a server cannot take yet or a
	// cluster cannot place: a serving process still warming its mounts
	// (GET /readyz), or a coordinator whose shard has no reachable
	// replica left. The request was not executed; retrying is safe.
	CodeUnavailable Code = "unavailable"
	// CodeInternal marks everything else. Over HTTP the message is a
	// constant — internal details are logged server-side, not shipped
	// to clients.
	CodeInternal Code = "internal"
)

// Error is the v1 error model. Message is safe to show to the caller;
// Detail optionally narrows it. The wrapped cause (if any) stays local
// — it is never serialized.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`

	// RetryAfterSeconds, when > 0 on a CodeOverloaded error, is the
	// limiter's advice for the Retry-After header — derived from the
	// observed queue-wait p50, so clients back off in proportion to the
	// actual backlog instead of a fixed constant. Not serialized: it
	// travels in the header, and Client re-derives behavior from there.
	RetryAfterSeconds int `json:"-"`

	err error // local cause; supports errors.Is/As through Unwrap
}

// Errorf builds an Error with a formatted message.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Unwrap exposes the local cause so errors.Is(err, query.ErrBadRequest)
// and friends keep working across the api boundary.
func (e *Error) Unwrap() error { return e.err }

// HTTPStatus maps the error's code to its HTTP status.
func (e *Error) HTTPStatus() int { return HTTPStatus(e.Code) }

// StatusClientClosedRequest is the non-standard (nginx-convention)
// status for work abandoned because the client went away; there is no
// standard code for it.
const StatusClientClosedRequest = 499

// codes is the v1 error table: each code with its HTTP status and the
// sentinel error that stands for it, in the order FromError checks the
// sentinels. CodeInternal is the fallback of all three lookups.
var codes = []struct {
	code     Code
	status   int
	sentinel error
}{
	{CodeBadRequest, http.StatusBadRequest, query.ErrBadRequest},
	{CodeNotFound, http.StatusNotFound, ErrNotFound},
	{CodeNotSupported, http.StatusNotImplemented, codec.ErrNotSupported},
	{CodeConflict, http.StatusConflict, ErrConflict},
	{CodeOverloaded, http.StatusTooManyRequests, ErrOverloaded},
	{CodeUnavailable, http.StatusServiceUnavailable, ErrUnavailable},
	{CodeCanceled, StatusClientClosedRequest, context.Canceled},
}

// HTTPStatus maps a Code to the HTTP status the v1 API serves it with.
// Unknown codes map to 500, the safe default for a server that is
// confused about its own failure.
func HTTPStatus(code Code) int {
	for _, c := range codes {
		if c.code == code {
			return c.status
		}
	}
	return http.StatusInternalServerError
}

// codeOfStatus is the client-side inverse of HTTPStatus, for responses
// (from proxies, load balancers) that carry no envelope: any other 4xx
// is the caller's, anything else internal.
func codeOfStatus(status int) Code {
	for _, c := range codes {
		if c.status == status {
			return c.code
		}
	}
	if status >= 400 && status < 500 {
		return CodeBadRequest
	}
	return CodeInternal
}

// ErrNotFound marks lookups of frames or stores that do not exist;
// FromError classifies anything wrapping it as CodeNotFound.
var ErrNotFound = errors.New("api: not found")

// noFrame is the not-found error of a label no frame carries.
func noFrame(label int) *Error {
	return &Error{Code: CodeNotFound, Message: fmt.Sprintf("no frame with label %d", label), err: ErrNotFound}
}

// ErrConflict marks writes that collide with existing state (e.g. an
// already-taken ingest label); FromError classifies anything wrapping
// it as CodeConflict.
var ErrConflict = errors.New("api: conflict")

// ErrOverloaded marks requests shed by admission control; FromError
// classifies anything wrapping it as CodeOverloaded.
var ErrOverloaded = errors.New("api: overloaded")

// ErrUnavailable marks requests a not-yet-ready server or a
// replica-exhausted cluster shard could not take; FromError classifies
// anything wrapping it as CodeUnavailable.
var ErrUnavailable = errors.New("api: unavailable")

// FromError classifies err into the v1 error model. Known sentinel
// errors pick their code — query validation failures are the caller's,
// missing frames are not_found, context cancellation is canceled,
// unsupported codec capabilities are not_supported — and everything
// else is internal with a constant message, so internal error text
// never leaks into a transport envelope. The original error stays
// reachable through Unwrap.
func FromError(err error) *Error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	for _, c := range codes {
		if errors.Is(err, c.sentinel) {
			return &Error{Code: c.code, Message: err.Error(), err: err}
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Code: CodeCanceled, Message: err.Error(), err: err}
	}
	return &Error{Code: CodeInternal, Message: "internal error", err: err}
}

// sentinelOf is FromError's inverse: the sentinel error a code stands
// for, for re-attaching to errors that crossed a transport.
func sentinelOf(code Code) error {
	for _, c := range codes {
		if c.code == code {
			return c.sentinel
		}
	}
	return nil
}

// CodeOf classifies any error to its stable code; nil maps to "".
func CodeOf(err error) Code {
	if err == nil {
		return ""
	}
	return FromError(err).Code
}

// ErrorEnvelope is the JSON wire shape of every v1 error response —
// the one struct the server writes and the client parses, so the two
// sides cannot drift.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// StoreInfo describes a store: GET /v1/store.
type StoreInfo struct {
	// Spec is the default codec spec embedded in the store header.
	Spec string `json:"spec"`
	// Specs lists every codec spec the store uses, default first —
	// present only for mixed-codec stores (format v2 with per-frame
	// specs).
	Specs []string `json:"specs,omitempty"`
	// Frames is the number of frames in the store.
	Frames int `json:"frames"`
	// Shards is the shard count of a sharded dataset; 0 (omitted) for a
	// single store.
	Shards int `json:"shards,omitempty"`
}

// FrameInfo is one entry of the frame index: GET /v1/frames.
type FrameInfo struct {
	// Index is the frame's position in commit order.
	Index int `json:"index"`
	// Label is the caller-chosen frame label.
	Label int `json:"label"`
	// Offset and Length locate the compressed payload in the store.
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
	// CRC32 is the payload checksum (hex), the basis of frame ETags.
	CRC32 string `json:"crc32"`
	// Spec is the frame's codec spec when it differs from the store
	// default (mixed-codec stores); empty otherwise.
	Spec string `json:"spec,omitempty"`
}

// FrameInfoAt converts the index entry at position i of a frame
// inventory — a store.Inventory, or a source that embeds one — to its
// wire form. Spec is set only where the frame's spec is not the
// default.
func FrameInfoAt(inv interface {
	Spec() string
	Info(i int) store.FrameInfo
	FrameSpec(i int) string
}, i int) FrameInfo {
	e := inv.Info(i)
	info := FrameInfo{Index: i, Label: e.Label, Offset: e.Offset, Length: e.Length, CRC32: fmt.Sprintf("%08x", e.CRC32)}
	if spec := inv.FrameSpec(i); spec != inv.Spec() {
		info.Spec = spec
	}
	return info
}

// Frame is a fully decompressed frame: GET /v1/frames/{label}.
type Frame struct {
	Label int       `json:"label"`
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// Backend is the v1 service contract. Every implementation — Local
// over an open store file or dataset, Client over HTTP, and the ones
// that wrap them (Limited, ingest.Store, cluster.Coordinator) — answers
// the whole method set, which is what lets the CLI accept a store path
// or a serving URL interchangeably and the HTTP layer serve any of them
// without probing. Ingest is the one optional capability (Ingestor).
// All methods are safe for concurrent use and honor context
// cancellation; failures classify through FromError to stable codes on
// either transport.
type Backend interface {
	// Spec describes the store.
	Spec(ctx context.Context) (StoreInfo, error)
	// Frames returns the frame index in commit order.
	Frames(ctx context.Context) ([]FrameInfo, error)
	// FrameInfo returns the index entry of the labeled frame.
	FrameInfo(ctx context.Context, label int) (FrameInfo, error)
	// Frame returns the frame with the given label, fully decompressed.
	Frame(ctx context.Context, label int) (*Frame, error)
	Payloads
	// PayloadReader returns the labeled frame's verified raw payload as
	// a positioned reader — the shape http.ServeContent wants. A store
	// backend serves a section of its file or mapping, zero-copy; a
	// remote one wraps the fetched bytes. A reader that is also an
	// io.Closer must be closed once read.
	PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error)
	// Region reads the axis-aligned sub-array of the labeled frame.
	Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error)
	// Stats computes per-frame aggregates for the labeled frame; nil or
	// empty aggs means all six.
	Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error)
	// Query runs a full compressed-domain query request.
	Query(ctx context.Context, req *query.Request) (*query.Result, error)
}

// Payloads is the raw payload part of Backend
// (GET /v1/frames/{label}/payload), named on its own for the benchmark.
type Payloads interface {
	// Payload returns the labeled frame's verified raw compressed bytes.
	Payload(ctx context.Context, label int) ([]byte, error)
}

// IngestFrame is one frame submitted to a streaming-ingest backend:
// a label, the decompressed tensor (shape + row-major data), and an
// optional codec spec overriding the store's per-frame assignment.
type IngestFrame struct {
	Label int       `json:"label"`
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
	Spec  string    `json:"spec,omitempty"`
}

// IngestResult reports the outcome of one ingest batch. Accepted
// frames are durable (fsynced to the log at the store file's tail) the
// moment the call returns; they become visible to queries at the next
// commit. Committed reports whether this batch itself triggered a
// commit, Pending how many accepted-but-uncommitted frames remain after
// it, and Frames the store's total committed frame count.
type IngestResult struct {
	Accepted  int  `json:"accepted"`
	Pending   int  `json:"pending"`
	Committed bool `json:"committed"`
	Frames    int  `json:"frames"`
}

// Ingestor is the one optional Backend capability: streaming frame
// ingest (POST /v1/datasets/{name}/frames). Backends without it answer
// the route with a CodeNotSupported error. Implementations guarantee the
// durability contract IngestResult documents: a successful return
// means every frame of the batch survives a crash.
type Ingestor interface {
	Ingest(ctx context.Context, frames []IngestFrame) (*IngestResult, error)
}

// AllAggregates is the default aggregate set of the stats resource.
var AllAggregates = []string{
	query.AggMean, query.AggVariance, query.AggStdDev,
	query.AggMin, query.AggMax, query.AggL2Norm,
}
