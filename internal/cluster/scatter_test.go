package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/query"
)

// momentsOf is one part's reduction state over xs.
func momentsOf(xs []float64) query.Moments {
	m := query.EmptyMoments()
	m.Frames, m.N = 1, int64(len(xs))
	for _, v := range xs {
		m.Sum += query.Float(v)
		m.SumSq += query.Float(v * v)
		m.Min, m.Max = min(m.Min, query.Float(v)), max(m.Max, query.Float(v))
	}
	return m
}

// TestScatterFailurePaths drives scatter.do with fake per-part runners.
// The happy path (routing, remap, header) is covered end to end by the
// cluster-vs-sharded differentials.
func TestScatterFailurePaths(t *testing.T) {
	// Two shards of two frames each; part j answers with the moments of
	// halves[j].
	halves := [][]float64{{1, -2, 3.5, 8}, {0.25, 7, -6, 2}}
	whole := momentsOf(append(append([]float64(nil), halves[0]...), halves[1]...))
	whole.Frames = 2 // one per part
	answer := func(_ context.Context, p part, _ *query.Request) (*query.Result, error) {
		return &query.Result{Reduced: &query.ReducedResult{Moments: momentsOf(halves[p.shard])}}, nil
	}
	boom := errors.New("shard 1 is on fire")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name    string
		ctx     context.Context
		run     func(context.Context, part, *query.Request) (*query.Result, error)
		wantErr error
	}{
		{name: "one part erroring fails the query", ctx: context.Background(), wantErr: boom,
			run: func(ctx context.Context, p part, sub *query.Request) (*query.Result, error) {
				if p.shard == 1 {
					return nil, boom
				}
				return answer(ctx, p, sub)
			}},
		{name: "canceled context", ctx: canceled, run: answer, wantErr: context.Canceled},
		{name: "reduce merges like the concatenation", ctx: context.Background(), run: answer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scatter{bases: []int{0, 2}, spec: "fake", run: tc.run}
			reduce := []string{query.AggMean, query.AggStdDev, query.AggMin, query.AggMax}
			res, err := s.do(tc.ctx, &query.Request{Reduce: reduce}, s.route([]int{0, 1, 2, 3}), reduce)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || res != nil {
					t.Fatalf("do = %+v, %v; want no result and %v", res, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := res.Reduced.Moments
			if got.Frames != whole.Frames || got.N != whole.N || got.Min != whole.Min || got.Max != whole.Max ||
				math.Abs(float64(got.Sum-whole.Sum)) > 1e-12 || math.Abs(float64(got.SumSq-whole.SumSq)) > 1e-12 {
				t.Errorf("merged moments %+v, want %+v", got, whole)
			}
			if want, _ := whole.Value(query.AggStdDev); math.Abs(float64(res.Reduced.Values[query.AggStdDev])-want) > 1e-12 {
				t.Errorf("stddev = %v, want %v", res.Reduced.Values[query.AggStdDev], want)
			}
		})
	}
}
