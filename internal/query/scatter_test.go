package query

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// TestScatterFailurePaths drives Scatter.Do with fake per-part runners.
// The happy path (routing, remap, header) is covered end to end by the
// shard-vs-single-store and cluster-vs-sharded differentials.
func TestScatterFailurePaths(t *testing.T) {
	// Two shards of two frames each; part j answers with the moments of
	// halves[j].
	halves := [][]float64{{1, -2, 3.5, 8}, {0.25, 7, -6, 2}}
	whole := decodedMoments(tensor.FromSlice(append(append([]float64(nil), halves[0]...), halves[1]...), 8), true)
	whole.Frames = 2 // one per part
	answer := func(_ context.Context, p Part, _ *Request) (*Result, error) {
		m := decodedMoments(tensor.FromSlice(halves[p.Shard], 4), true)
		return &Result{Reduced: &ReducedResult{Moments: m}}, nil
	}
	boom := errors.New("shard 1 is on fire")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	reg := obs.NewRegistry()
	parts, seconds := reg.Counter("parts", ""), reg.Histogram("seconds", "", nil)
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		run     func(context.Context, Part, *Request) (*Result, error)
		wantErr error
	}{
		{name: "one part erroring fails the query", ctx: context.Background(), wantErr: boom,
			run: func(ctx context.Context, p Part, sub *Request) (*Result, error) {
				if p.Shard == 1 {
					return nil, boom
				}
				return answer(ctx, p, sub)
			}},
		{name: "canceled context", ctx: canceled, run: answer, wantErr: context.Canceled},
		{name: "reduce merges like the concatenation", ctx: context.Background(), run: answer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Scatter{
				Span: "test.scatter", Bases: []int{0, 2}, Spec: "fake",
				Parts: parts, Seconds: seconds, Run: tc.run,
			}
			reduce := []string{AggMean, AggStdDev, AggMin, AggMax}
			res, err := s.Do(tc.ctx, &Request{Reduce: reduce}, s.Route([]int{0, 1, 2, 3}), reduce)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || res != nil {
					t.Fatalf("Do = %+v, %v; want no result and %v", res, err, tc.wantErr)
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
			if want, _ := whole.Value(AggStdDev); math.Abs(float64(res.Reduced.Values[AggStdDev])-want) > 1e-12 {
				t.Errorf("stddev = %v, want %v", res.Reduced.Values[AggStdDev], want)
			}
		})
	}
}
