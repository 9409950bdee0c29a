package query

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Part is one shard's share of a routed selection: the local index
// range its engine should scan.
type Part struct {
	Shard    int
	From, To int // local positions, half-open
}

// Sub scopes req to the part: same work, selection translated to the
// shard's local index range. The window's endpoints are themselves
// selected frames, so the label glob plus the local range resolves to
// exactly the part's frames on the shard's side.
func (p Part) Sub(req *Request) *Request {
	sub := *req
	sub.Select = Selector{Labels: req.Select.Labels, From: &p.From, To: &p.To}
	return &sub
}

// Scatter is the scatter-gather executor every partitioned source
// shares — shard.Dataset over its in-process engines, cluster.Coordinator
// over the wire. The source supplies the partition (Bases), the answer
// header, the instruments to report into, and Run; routing, the fan-out
// (goroutines started and awaited per query) and the merge live here once.
type Scatter struct {
	// Span names the trace span around the fan-out.
	Span string
	// Bases holds the global position of each shard's first frame,
	// ascending: shards cover contiguous global ranges.
	Bases []int
	// Spec and Specs head every gathered Result; Specs is nil for a
	// codec-uniform source.
	Spec  string
	Specs []string
	// Parts counts dispatched sub-queries; Seconds observes the latency
	// of each.
	Parts   *obs.Counter
	Seconds *obs.Histogram
	// Run answers sub, already scoped to p, on shard p.Shard.
	Run func(ctx context.Context, p Part, sub *Request) (*Result, error)
}

// Route splits a compiled selection — the resolved global frame
// positions, ascending — by shard. Shards cover contiguous global
// ranges, so each shard with at least one match yields exactly one part
// spanning its first to last matched local position; shards the
// selector cannot touch (a label glob that matches nothing there, a
// range that ends earlier) are skipped without opening a frame.
func (s *Scatter) Route(frames []int) []Part {
	var parts []Part
	shard := 0
	for _, g := range frames {
		for shard+1 < len(s.Bases) && s.Bases[shard+1] <= g {
			shard++
		}
		local := g - s.Bases[shard]
		if n := len(parts); n > 0 && parts[n-1].Shard == shard {
			parts[n-1].To = local + 1
			continue
		}
		parts = append(parts, Part{Shard: shard, From: local, To: local + 1})
	}
	return parts
}

// Do runs req on every part concurrently and gathers the partial
// results into one answer: frame results concatenate in global order
// with indices remapped to global positions, the compressed-space flag
// ANDs, and reduction partials fold through Moments into reduce, the
// plan's normalized kind list. Any part failing fails the whole query
// with the parts' errors joined; a context that ends mid-fan-out
// returns its error.
func (s *Scatter) Do(ctx context.Context, req *Request, parts []Part, reduce []string) (*Result, error) {
	s.Parts.Add(uint64(len(parts)))
	ctx, span := obs.DefaultTracer.Start(ctx, s.Span)
	span.SetDetail("parts=%d/%d", len(parts), len(s.Bases))
	defer span.End()

	results := make([]*Result, len(parts))
	errs := make([]error, len(parts))
	if err := tensor.ParallelForCoarseCtx(ctx, len(parts), func(j int) {
		start := time.Now()
		results[j], errs[j] = s.Run(ctx, parts[j], parts[j].Sub(req))
		s.Seconds.ObserveDuration(time.Since(start))
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	out := &Result{Spec: s.Spec, Specs: append([]string(nil), s.Specs...), ExecutedInCompressedSpace: true}
	total := EmptyMoments()
	for j, r := range results {
		base := s.Bases[parts[j].Shard]
		for _, fr := range r.Frames {
			fr.Index += base
			out.Frames = append(out.Frames, fr)
		}
		out.ExecutedInCompressedSpace = out.ExecutedInCompressedSpace && r.ExecutedInCompressedSpace
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
