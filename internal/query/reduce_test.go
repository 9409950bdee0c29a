package query

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/store"
	"repro/internal/tensor"
)

func TestMomentsMergeMatchesDirect(t *testing.T) {
	// Folding per-part moments must equal computing over the
	// concatenation, whatever the split.
	data := []float64{3, -1, 4, 1, -5, 9, 2, 6, 5, 3.5}
	direct := EmptyMoments()
	for _, v := range data {
		m := EmptyMoments()
		m.Frames, m.N = 1, 1
		m.Sum, m.SumSq = Float(v), Float(v*v)
		m.Min, m.Max = Float(v), Float(v)
		direct.Merge(m)
	}
	for _, split := range []int{1, 3, 5, 9} {
		parts := EmptyMoments()
		for start := 0; start < len(data); start += split {
			end := min(start+split, len(data))
			part := EmptyMoments()
			for _, v := range data[start:end] {
				one := EmptyMoments()
				one.Frames, one.N = 1, 1
				one.Sum, one.SumSq = Float(v), Float(v*v)
				one.Min, one.Max = Float(v), Float(v)
				part.Merge(one)
			}
			parts.Merge(part)
		}
		if parts.N != direct.N || parts.Frames != direct.Frames {
			t.Fatalf("split %d: state %+v != %+v", split, parts, direct)
		}
		for _, kind := range []string{AggMean, AggVariance, AggStdDev, AggMin, AggMax, AggL2Norm} {
			a, err := parts.Value(kind)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := direct.Value(kind)
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
				t.Errorf("split %d %s = %g, want %g", split, kind, a, b)
			}
		}
	}
}

func TestMomentsValueEdges(t *testing.T) {
	if _, err := EmptyMoments().Value(AggMean); err == nil {
		t.Error("reduction over zero elements should fail")
	}
	m := EmptyMoments()
	m.Frames, m.N = 1, 4
	m.Sum, m.SumSq = 8, 15.999999999999 // variance numerically ≈ −ε
	if v, _ := m.Value(AggStdDev); v != 0 {
		t.Errorf("stddev of ≈0 variance = %g, want clamped 0", v)
	}
	if _, err := m.Value("median"); err == nil {
		t.Error("unknown reduce kind should fail")
	}
}

func TestReducedResultJSONRoundTrip(t *testing.T) {
	// Untracked extrema are ±Inf, which must survive JSON (the Float
	// string encoding) so a client can re-merge shard partials.
	m := EmptyMoments()
	m.Frames, m.N = 2, 8
	m.Sum, m.SumSq = 4, 10
	red, err := m.Reduced([]string{AggMean, AggL2Norm})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(red)
	if err != nil {
		t.Fatal(err)
	}
	var back ReducedResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(back.Min), 1) || !math.IsInf(float64(back.Max), -1) {
		t.Errorf("untracked extrema lost in JSON: %+v", back.Moments)
	}
	if back.N != 8 || back.Values[AggMean] != red.Values[AggMean] {
		t.Errorf("round trip %+v != %+v", back, red)
	}
}

// identityCoder "compresses" a tensor to itself: a codec without Ops
// or Extrema, so every aggregate and reduction takes the decode path on
// exactly the values it was given — signed zeros and NaNs included.
type identityCoder struct{}

func (identityCoder) Name() string                                        { return "identity" }
func (identityCoder) Spec() string                                        { return "identity" }
func (identityCoder) Compress(t *tensor.Tensor) (codec.Compressed, error) { return t, nil }
func (identityCoder) Decompress(c codec.Compressed) (*tensor.Tensor, error) {
	return c.(*tensor.Tensor), nil
}
func (identityCoder) EncodedSize(codec.Compressed) int        { return 0 }
func (identityCoder) Encode(codec.Compressed) ([]byte, error) { return nil, codec.ErrNotSupported }
func (identityCoder) Decode([]byte) (codec.Compressed, error) { return nil, codec.ErrNotSupported }

// tensorSource serves in-memory frames under identityCoder, labeled by
// position.
type tensorSource []*tensor.Tensor

func (s tensorSource) Len() int                              { return len(s) }
func (s tensorSource) Info(i int) store.FrameInfo            { return store.FrameInfo{Label: i} }
func (s tensorSource) IndexOf(label int) (int, bool)         { return label, label >= 0 && label < len(s) }
func (s tensorSource) Spec() string                          { return identityCoder{}.Spec() }
func (s tensorSource) Coder() (codec.Coder, error)           { return identityCoder{}, nil }
func (s tensorSource) Frame(i int) (codec.Compressed, error) { return s[i], nil }
func (s tensorSource) Decompress(i int) (*tensor.Tensor, error) {
	return s[i], nil
}

// TestDecodedStatsMatchOneFrameReduce: on the decode path, a frame's
// min and max aggregates and a one-frame reduction's come from the same
// accumulation, with Tensor.Min/Max's comparisons, so they agree bit for
// bit — also where math.Min/Max would part ways with them: on signed
// zeros and on NaN.
func TestDecodedStatsMatchOneFrameReduce(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, data := range [][]float64{{0, negZero, 1}, {1, math.NaN(), 0.5}, {-1, negZero, 0}, {0.5, math.NaN(), 1}} {
		x := tensor.FromSlice(data, len(data))
		e := New(tensorSource{x}, Options{})
		kinds := []string{AggMin, AggMax}
		res, err := e.Run(context.Background(), &Request{Aggregates: kinds, Reduce: kinds})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{AggMin: x.Min(), AggMax: x.Max()}
		for _, kind := range kinds {
			stats, reduced := float64(res.Frames[0].Aggregates[kind]), float64(res.Reduced.Values[kind])
			if math.Float64bits(stats) != math.Float64bits(reduced) || math.Float64bits(stats) != math.Float64bits(want[kind]) {
				t.Errorf("%v: %s reads %v in stats and %v in a one-frame reduce, Tensor method %v",
					data, kind, stats, reduced, want[kind])
			}
		}
	}
}
