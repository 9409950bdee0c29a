// Package series manages time series of compressed arrays: the usage
// pattern of the paper's §V-C experiment and §VI future-work scenarios
// ("keeping the time-sequences of evolving simulation results in
// compressed form"). A Series compresses frames as they are appended,
// and its distance matrix runs wholly in compressed space. Pipeline is
// the streaming writers' counterpart: a bounded concurrent compressor
// that commits frames to a sink (a store file) in submission order.
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
}

// New creates an empty series using the given compressor.
func New(comp *core.Compressor) *Series {
	return &Series{comp: comp}
}

// Append compresses frame and stores it after the frames already held.
func (s *Series) Append(frame *tensor.Tensor) error {
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
	return nil
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
