package shard

import (
	"context"
	"fmt"

	"repro/internal/query"
)

// Dataset is a query.Source, which is what backs the unified engine.
var _ query.Source = (*Dataset)(nil)

// Query answers req over the whole dataset with single-store semantics.
//
// Shard-local work — per-frame aggregates, regions, points, and
// dataset-level reductions — scatters: the router picks the shards the
// selection can touch, their engines run concurrently on goroutines the
// query starts and waits for, and the partial results gather in manifest
// order (per-frame results remap to global positions; reductions merge
// their moment state exactly). Metric requests couple frames across shards —
// a pairwise metric's two frames or a reference frame may live anywhere
// — so they run on the unified engine over the concatenated view
// instead, which fans out per frame the same way.
func (d *Dataset) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: nil request", query.ErrBadRequest)
	}
	if req.Metric != nil {
		return d.unified.Run(ctx, req)
	}
	// Compile against the concatenated view: validation errors (unknown
	// aggregates, empty work set, bad globs, empty selections) surface
	// identically to a single store's, whatever shard the frames live
	// in — and the resolved selection is what the router splits.
	p, err := query.Compile(d, req)
	if err != nil {
		return nil, err
	}
	parts := d.scatter.Route(p.Frames())
	shardQueries.Inc()
	shardSkipped.Add(uint64(d.Shards() - len(parts)))
	return d.scatter.Do(ctx, req, parts, p.Reduce())
}

// runPart answers a sub-request on the engine of the shard it was
// routed to.
func (d *Dataset) runPart(ctx context.Context, p query.Part, sub *query.Request) (*query.Result, error) {
	return d.engines[p.Shard].Run(ctx, sub)
}
