package query

import (
	"math"
)

// Moments is the mergeable partial state of a dataset-level reduction:
// enough per-selection statistics to reconstruct every reduce aggregate
// exactly after combining disjoint parts. Mean merges as Σx / Σn,
// variance as Σx²/Σn − (Σx/Σn)², l2norm as sqrt(Σx²), and extrema by
// comparison. An engine folds one state per frame, in frame order. A
// cluster coordinator scattering a reduction folds per-shard partials
// instead, which associates the floating-point sums differently: those
// reductions match a single store's within a tolerance, not bit for bit.
//
// Min and Max are only meaningful when the reduction asked for them
// (tracking them takes codec.Extrema or a decode); untracked parts carry
// +Inf/−Inf, the identity elements of the merge.
type Moments struct {
	// Frames counts the frames folded into this state.
	Frames int `json:"frames"`
	// N counts the elements folded into this state.
	N int64 `json:"n"`
	// Sum is Σx over all elements.
	Sum Float `json:"sum"`
	// SumSq is Σx² over all elements.
	SumSq Float `json:"sumSq"`
	// Min and Max are the tracked extrema (+Inf/−Inf when untracked).
	Min Float `json:"min"`
	Max Float `json:"max"`
}

// EmptyMoments returns the identity element of Merge: zero frames,
// ±Inf extrema.
func EmptyMoments() Moments {
	return Moments{Min: Float(math.Inf(1)), Max: Float(math.Inf(-1))}
}

// Merge folds another partial state into m. Merging is commutative and
// associative up to floating-point rounding.
func (m *Moments) Merge(o Moments) {
	m.Frames += o.Frames
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
	m.Min = Float(math.Min(float64(m.Min), float64(o.Min)))
	m.Max = Float(math.Max(float64(m.Max), float64(o.Max)))
}

// Value computes one reduce aggregate from the merged state. The
// variance/stddev definitions mirror the per-frame aggregate path
// (population variance, stddev clamped at zero).
func (m Moments) Value(kind string) (float64, error) {
	if m.N == 0 {
		return 0, badf("reduction over zero elements")
	}
	n := float64(m.N)
	switch kind {
	case AggMean:
		return float64(m.Sum) / n, nil
	case AggVariance:
		mean := float64(m.Sum) / n
		return float64(m.SumSq)/n - mean*mean, nil
	case AggStdDev:
		mean := float64(m.Sum) / n
		return math.Sqrt(math.Max(float64(m.SumSq)/n-mean*mean, 0)), nil
	case AggMin:
		return float64(m.Min), nil
	case AggMax:
		return float64(m.Max), nil
	case AggL2Norm:
		return math.Sqrt(float64(m.SumSq)), nil
	}
	return 0, badf("unknown reduce aggregate %q", kind)
}

// Reduced renders the merged state as a result for the requested kinds.
func (m Moments) Reduced(kinds []string) (*ReducedResult, error) {
	vals, err := m.values(kinds)
	if err != nil {
		return nil, err
	}
	return &ReducedResult{Moments: m, Values: vals}, nil
}

// values maps each of kinds to its Value — a reduction's values, or one
// decoded frame's aggregates.
func (m Moments) values(kinds []string) (map[string]Float, error) {
	vals := make(map[string]Float, len(kinds))
	for _, kind := range kinds {
		v, err := m.Value(kind)
		if err != nil {
			return nil, err
		}
		vals[kind] = Float(v)
	}
	return vals, nil
}

// ReducedResult is the dataset-level reduction of a query answer: the
// requested aggregate values plus the mergeable moment state they were
// derived from, so partial results from dataset shards can be combined
// without re-reading any frame.
type ReducedResult struct {
	Moments
	// Values maps requested reduce kind → value over the whole
	// selection.
	Values map[string]Float `json:"values"`
}
