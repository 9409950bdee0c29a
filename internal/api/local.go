package api

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
)

// Source is the frame collection a Local serves: what the query engine
// reads plus payload access. *store.Reader and *shard.Dataset both
// satisfy it. A source that also offers Shards() int reports its shard
// count in StoreInfo.
type Source interface {
	query.Source
	Payload(i int) ([]byte, error)
	PayloadReader(i int) (*io.SectionReader, error)
	Close() error
}

var _ Backend = (*Local)(nil)

// Local is the in-process Backend: a Source for frame access and the
// function that answers queries over it — a query.Engine's Run for one
// store file, a shard.Dataset's Query (the same engine over its
// concatenated view) for a sharded dataset, which is how
// /v1/datasets/{name}/query works and why the CLI accepts a manifest
// path wherever it accepts a store path. Positions
// are the source's (global, manifest order, for a dataset; FrameInfo
// offsets are then relative to the owning shard's file). Every error it
// returns is already classified (*Error), so the HTTP layer and CLI
// render it without re-inspecting causes; the original error stays
// reachable through Unwrap.
type Local struct {
	src    Source
	run    func(context.Context, *query.Request) (*query.Result, error)
	specs  []string // src.Specs(), default first
	shards int
}

// NewLocal wraps an open source and the function that runs a request
// over it. The caller keeps ownership of src (and closes it).
func NewLocal(src Source, run func(context.Context, *query.Request) (*query.Result, error)) *Local {
	l := &Local{src: src, run: run, specs: src.Specs()}
	if s, ok := src.(interface{ Shards() int }); ok {
		l.shards = s.Shards()
	}
	return l
}

// OpenLocal opens the store at path with a fresh engine, memory-mapped
// where the platform supports it so payload serving is zero-copy (the
// portable fallback is plain positioned reads). Close releases the
// mapping or file handle.
func OpenLocal(path string, opts query.Options) (*Local, error) {
	r, err := store.OpenReaderMmap(path)
	if err != nil {
		return nil, FromError(err)
	}
	return NewLocal(r, query.New(r, opts).Run), nil
}

// OpenSharded opens the dataset described by the manifest at path.
// Close releases the shard file handles.
func OpenSharded(path string, opts query.Options) (*Local, error) {
	ds, err := shard.Open(path, opts)
	if err != nil {
		return nil, FromError(err)
	}
	return NewLocal(ds, ds.Query), nil
}

// Close releases the source's file handles when the Local owns them
// (built by OpenLocal or OpenSharded).
func (l *Local) Close() error { return l.src.Close() }

func (l *Local) Spec(ctx context.Context) (StoreInfo, error) {
	if err := ctx.Err(); err != nil {
		return StoreInfo{}, FromError(err)
	}
	info := StoreInfo{Spec: l.specs[0], Frames: l.src.Len(), Shards: l.shards}
	if len(l.specs) > 1 {
		info.Specs = append([]string(nil), l.specs...)
	}
	return info, nil
}

func (l *Local) Frames(ctx context.Context) ([]FrameInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, FromError(err)
	}
	infos := make([]FrameInfo, l.src.Len())
	for i := range infos {
		infos[i] = l.frameInfoAt(i)
	}
	return infos, nil
}

// frameInfoAt converts the index entry at source position i.
func (l *Local) frameInfoAt(i int) FrameInfo {
	e := l.src.Info(i)
	info := FrameInfo{
		Index:  i,
		Label:  e.Label,
		Offset: e.Offset,
		Length: e.Length,
		CRC32:  fmt.Sprintf("%08x", e.CRC32),
	}
	if spec := l.src.FrameSpec(i); spec != l.specs[0] {
		info.Spec = spec
	}
	return info
}

// indexOf resolves a label to its source position.
func (l *Local) indexOf(label int) (int, error) {
	i, ok := l.src.IndexOf(label)
	if !ok {
		return 0, noFrame(label)
	}
	return i, nil
}

// FrameInfo resolves one label through the source's label index.
func (l *Local) FrameInfo(ctx context.Context, label int) (FrameInfo, error) {
	if err := ctx.Err(); err != nil {
		return FrameInfo{}, FromError(err)
	}
	i, err := l.indexOf(label)
	if err != nil {
		return FrameInfo{}, err
	}
	return l.frameInfoAt(i), nil
}

func (l *Local) Frame(ctx context.Context, label int) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, FromError(err)
	}
	i, err := l.indexOf(label)
	if err != nil {
		return nil, err
	}
	t, err := l.src.Decompress(i)
	if err != nil {
		return nil, FromError(err)
	}
	return &Frame{Label: label, Shape: t.Shape(), Data: t.Data()}, nil
}

func (l *Local) Payload(ctx context.Context, label int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, FromError(err)
	}
	i, err := l.indexOf(label)
	if err != nil {
		return nil, err
	}
	payload, err := l.src.Payload(i)
	if err != nil {
		return nil, FromError(err)
	}
	return payload, nil
}

// PayloadReader is a positioned reader over the verified payload,
// zero-copy from the source's memory mapping when it has one.
func (l *Local) PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error) {
	if err := ctx.Err(); err != nil {
		return nil, FromError(err)
	}
	i, err := l.indexOf(label)
	if err != nil {
		return nil, err
	}
	rs, err := l.src.PayloadReader(i)
	if err != nil {
		return nil, FromError(err)
	}
	return rs, nil
}

// frameQuery runs a query scoped to one frame and returns that frame's
// result. Selection uses the canonical decimal label so resolution
// matches Frame/Payload exactly.
func (l *Local) frameQuery(ctx context.Context, label int, req *query.Request) (*query.FrameResult, error) {
	if _, err := l.indexOf(label); err != nil {
		return nil, err
	}
	req.Select = query.Selector{Labels: strconv.Itoa(label)}
	res, err := l.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &res.Frames[0], nil
}

func (l *Local) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	if len(aggs) == 0 {
		aggs = AllAggregates
	}
	return l.frameQuery(ctx, label, &query.Request{Aggregates: aggs})
}

func (l *Local) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	return l.frameQuery(ctx, label, &query.Request{
		Region: &query.RegionRequest{Offset: offset, Shape: shape},
	})
}

func (l *Local) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	res, err := l.run(ctx, req)
	if err != nil {
		return nil, FromError(err)
	}
	return res, nil
}
