// Package series manages time series of compressed arrays: the usage
// pattern of the paper's §V-C experiment and §VI future-work scenarios
// ("keeping the time-sequences of evolving simulation results in
// compressed form"). A Series compresses frames as they are appended,
// and analyses (adjacent-frame distances, distance matrices, peak
// detection) run wholly in compressed space. Pipeline is the streaming
// writers' counterpart: a bounded concurrent compressor that commits
// frames to a sink (a store file) in submission order.
package series

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Series is an append-only list of compressed frames sharing one
// compressor. The zero value is not usable; create with New.
type Series struct {
	comp   *core.Compressor
	mu     sync.Mutex
	frames []*core.CompressedArray
	labels []int
}

// New creates an empty series using the given compressor.
func New(comp *core.Compressor) *Series {
	return &Series{comp: comp}
}

// Append compresses frame and stores it under the given label (e.g. the
// simulation time step).
func (s *Series) Append(label int, frame *tensor.Tensor) error {
	a, err := s.comp.Compress(frame)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) > 0 && !tensor.EqualShape(s.frames[0].Shape, a.Shape) {
		return fmt.Errorf("series: frame shape %v does not match series shape %v",
			a.Shape, s.frames[0].Shape)
	}
	s.frames = append(s.frames, a)
	s.labels = append(s.labels, label)
	return nil
}

// Len returns the number of stored frames.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// Label returns the label of frame i.
func (s *Series) Label(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.labels[i]
}

// Frame returns compressed frame i.
func (s *Series) Frame(i int) *core.CompressedArray {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames[i]
}

// CompressedBytes returns the total serialized size of all frames.
func (s *Series) CompressedBytes() (int, error) {
	s.mu.Lock()
	frames := append([]*core.CompressedArray(nil), s.frames...)
	s.mu.Unlock()
	total := 0
	for _, f := range frames {
		blob, err := core.Encode(f)
		if err != nil {
			return 0, err
		}
		total += len(blob)
	}
	return total, nil
}

// Transition is one adjacent-frame distance.
type Transition struct {
	FromLabel, ToLabel int
	Distance           float64
}

// AdjacentDistances returns the distance between every pair of adjacent
// frames under the given metric.
func (s *Series) AdjacentDistances(metric func(a, b *core.CompressedArray) (float64, error)) ([]Transition, error) {
	s.mu.Lock()
	frames := append([]*core.CompressedArray(nil), s.frames...)
	labels := append([]int(nil), s.labels...)
	s.mu.Unlock()
	if len(frames) < 2 {
		return nil, errors.New("series: need at least two frames")
	}
	out := make([]Transition, len(frames)-1)
	for i := 1; i < len(frames); i++ {
		d, err := metric(frames[i-1], frames[i])
		if err != nil {
			return nil, err
		}
		out[i-1] = Transition{FromLabel: labels[i-1], ToLabel: labels[i], Distance: d}
	}
	return out, nil
}

// L2Distances returns adjacent exact compressed-space L2 distances.
func (s *Series) L2Distances() ([]Transition, error) {
	return s.AdjacentDistances(s.comp.L2Distance)
}

// WassersteinDistances returns adjacent approximate Wasserstein distances
// of order p.
func (s *Series) WassersteinDistances(p float64) ([]Transition, error) {
	return s.AdjacentDistances(func(a, b *core.CompressedArray) (float64, error) {
		return s.comp.WassersteinDistance(a, b, p)
	})
}

// LargestTransition returns the transition with the greatest distance —
// the scission-detection primitive of §V-C.
func LargestTransition(ts []Transition) (Transition, error) {
	if len(ts) == 0 {
		return Transition{}, errors.New("series: no transitions")
	}
	best := ts[0]
	for _, t := range ts[1:] {
		if t.Distance > best.Distance {
			best = t
		}
	}
	return best, nil
}

// Peaks returns the transitions whose distance exceeds ratio × the median
// distance: the "misleading peaks" detector for Fig. 6a-style series.
func Peaks(ts []Transition, ratio float64) []Transition {
	if len(ts) == 0 {
		return nil
	}
	med := medianDistance(ts)
	var out []Transition
	for _, t := range ts {
		if t.Distance > ratio*med {
			out = append(out, t)
		}
	}
	return out
}

func medianDistance(ts []Transition) float64 {
	ds := make([]float64, len(ts))
	for i, t := range ts {
		ds[i] = t.Distance
	}
	// insertion sort; n is tiny
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

// DistanceMatrix computes the full pairwise distance matrix between all
// frames under the given metric — the ensemble-testing primitive of §VI.
// The matrix is symmetric with a zero diagonal; only the upper triangle
// is computed, in parallel.
func (s *Series) DistanceMatrix(metric func(a, b *core.CompressedArray) (float64, error)) (*tensor.Tensor, error) {
	s.mu.Lock()
	frames := append([]*core.CompressedArray(nil), s.frames...)
	s.mu.Unlock()
	n := len(frames)
	if n == 0 {
		return nil, errors.New("series: empty")
	}
	out := tensor.New(n, n)
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	var firstErr error
	var errMu sync.Mutex
	tensor.ParallelFor(len(pairs), func(start, end int) {
		for k := start; k < end; k++ {
			p := pairs[k]
			d, err := metric(frames[p.i], frames[p.j])
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			out.Set(d, p.i, p.j)
			out.Set(d, p.j, p.i)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
