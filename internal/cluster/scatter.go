package cluster

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/tensor"
)

// part is one shard's share of a routed selection: the local index
// range its shard should scan.
type part struct {
	shard    int
	from, to int // local positions, half-open
}

// sub scopes req to the part: same work, selection translated to the
// shard's local index range. The window's endpoints are themselves
// selected frames, so the label glob plus the local range resolves to
// exactly the part's frames on the shard's side.
func (p part) sub(req *query.Request) *query.Request {
	sub := *req
	sub.Select = query.Selector{Labels: req.Select.Labels, From: &p.from, To: &p.to}
	return &sub
}

// scatter is the coordinator's scatter-gather executor. The coordinator
// supplies the partition (bases), the answer header and run; routing,
// the fan-out (goroutines started and awaited per query) and the merge
// live here.
type scatter struct {
	// bases holds the global position of each shard's first frame,
	// ascending: shards cover contiguous global ranges.
	bases []int
	// spec and specs head every gathered Result; specs is nil for a
	// codec-uniform cluster.
	spec  string
	specs []string
	// run answers sub, already scoped to p, on shard p.shard: the
	// coordinator's runPart.
	run func(ctx context.Context, p part, sub *query.Request) (*query.Result, error)
}

// shardOf returns the shard owning global position g: the last whose
// base is at most g (an empty shard shares the next one's base).
func (s *scatter) shardOf(g int) int {
	return sort.SearchInts(s.bases, g+1) - 1
}

// route splits a compiled selection — the resolved global frame
// positions, ascending — by shard. Shards cover contiguous global
// ranges, so each shard with at least one match yields exactly one part
// spanning its first to last matched local position; shards the
// selector cannot touch (a label glob that matches nothing there, a
// range that ends earlier) are skipped without a call.
func (s *scatter) route(frames []int) []part {
	var parts []part
	for _, g := range frames {
		shard := s.shardOf(g)
		local := g - s.bases[shard]
		if n := len(parts); n > 0 && parts[n-1].shard == shard {
			parts[n-1].to = local + 1
			continue
		}
		parts = append(parts, part{shard: shard, from: local, to: local + 1})
	}
	return parts
}

// do runs req on every part concurrently and gathers the partial
// results into one answer: frame results concatenate in global order
// with indices remapped to global positions, the compressed-space flag
// ANDs, a pair metric (only ever routed as one part) passes through, and
// reduction partials fold through query.Moments into reduce, the plan's
// normalized kind list. Folding a single part's state again from
// EmptyMoments is exact: an engine's folded sums start at +0 and so are
// never −0. Any part failing fails the whole query with the parts'
// errors joined; a context that ends mid-fan-out returns its error.
func (s *scatter) do(ctx context.Context, req *query.Request, parts []part, reduce []string) (*query.Result, error) {
	clusterParts.Add(uint64(len(parts)))
	ctx, span := obs.DefaultTracer.Start(ctx, "cluster.scatter")
	span.SetDetail("parts=%d/%d", len(parts), len(s.bases))
	defer span.End()

	results := make([]*query.Result, len(parts))
	errs := make([]error, len(parts))
	if err := tensor.ParallelForCoarseCtx(ctx, len(parts), func(j int) {
		start := time.Now()
		results[j], errs[j] = s.run(ctx, parts[j], parts[j].sub(req))
		clusterScatterSeconds.ObserveDuration(time.Since(start))
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	out := &query.Result{Spec: s.spec, Specs: append([]string(nil), s.specs...), ExecutedInCompressedSpace: true}
	total := query.EmptyMoments()
	for j, r := range results {
		base := s.bases[parts[j].shard]
		for _, fr := range r.Frames {
			fr.Index += base
			out.Frames = append(out.Frames, fr)
		}
		out.ExecutedInCompressedSpace = out.ExecutedInCompressedSpace && r.ExecutedInCompressedSpace
		if r.Pair != nil {
			out.Pair = r.Pair
		}
		if r.Reduced != nil {
			total.Merge(r.Reduced.Moments)
		}
	}
	if len(reduce) > 0 {
		reduced, err := total.Reduced(reduce)
		if err != nil {
			return nil, err
		}
		out.Reduced = reduced
	}
	return out, nil
}
