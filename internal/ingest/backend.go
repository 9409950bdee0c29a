package ingest

import (
	"context"
	"io"

	"repro/internal/api"
	"repro/internal/query"
)

// api.Backend plus the optional capabilities, by delegation to the
// current read generation: each call pins the view it starts on, so a
// commit mid-query swaps generations without yanking the mapping out
// from under the executor. Compile-time checks keep the Store a
// drop-in for the HTTP layer.
var (
	_ api.Backend         = (*Store)(nil)
	_ api.Ingestor        = (*Store)(nil)
	_ api.Payloads        = (*Store)(nil)
	_ api.PayloadStreamer = (*Store)(nil)
	_ api.FrameResolver   = (*Store)(nil)
)

// withView runs fn against the current read generation, pinned for
// the duration of the call.
func withView[T any](s *Store, fn func(*api.Local) (T, error)) (T, error) {
	v, err := s.acquireView()
	if err != nil {
		var zero T
		return zero, err
	}
	defer v.release()
	return fn(v.local)
}

func (s *Store) Spec(ctx context.Context) (api.StoreInfo, error) {
	return withView(s, func(l *api.Local) (api.StoreInfo, error) { return l.Spec(ctx) })
}

func (s *Store) Frames(ctx context.Context) ([]api.FrameInfo, error) {
	return withView(s, func(l *api.Local) ([]api.FrameInfo, error) { return l.Frames(ctx) })
}

func (s *Store) Frame(ctx context.Context, label int) (*api.Frame, error) {
	return withView(s, func(l *api.Local) (*api.Frame, error) { return l.Frame(ctx, label) })
}

func (s *Store) FrameInfo(ctx context.Context, label int) (api.FrameInfo, error) {
	return withView(s, func(l *api.Local) (api.FrameInfo, error) { return l.FrameInfo(ctx, label) })
}

func (s *Store) Payload(ctx context.Context, label int) ([]byte, error) {
	return withView(s, func(l *api.Local) ([]byte, error) { return l.Payload(ctx, label) })
}

func (s *Store) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	return withView(s, func(l *api.Local) (*query.FrameResult, error) { return l.Stats(ctx, label, aggs) })
}

func (s *Store) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	return withView(s, func(l *api.Local) (*query.FrameResult, error) { return l.Region(ctx, label, offset, shape) })
}

func (s *Store) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	return withView(s, func(l *api.Local) (*query.Result, error) { return l.Query(ctx, req) })
}

// PayloadReader pins the view for the returned reader's whole
// lifetime: http.ServeContent reads after this call returns, and the
// mapping must outlive those reads. The view releases on Close.
func (s *Store) PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error) {
	v, err := s.acquireView()
	if err != nil {
		return nil, err
	}
	rs, err := v.local.PayloadReader(ctx, label)
	if err != nil {
		v.release()
		return nil, err
	}
	return &pinnedReader{ReadSeeker: rs, v: v}, nil
}

// pinnedReader couples a payload section to its view reference.
type pinnedReader struct {
	io.ReadSeeker
	v *view
}

// Close releases the pin; the HTTP layer closes payload readers that
// implement io.Closer once the response is written.
func (p *pinnedReader) Close() error {
	if p.v != nil {
		p.v.release()
		p.v = nil
	}
	return nil
}
