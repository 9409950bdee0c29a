// Package tune implements adaptive per-frame codec assignment: it
// trial-encodes each frame of a series under a set of candidate codec
// specs, scores every trial on compression ratio, reconstruction error,
// and encode latency, and picks a winner per frame. The chosen
// assignment feeds a mixed-codec pack (store format v2, one spec per
// frame) via series.NewAssignedPipeline / shard.WriteDatasetAssigned;
// the full trial matrix lands in a JSON report (`goblaz tune`).
//
// Scoring. For one frame, let bytes_c be candidate c's encoded size,
// minBytes the smallest among candidates that encoded successfully,
// err_c the L∞ reconstruction error, range the frame's value range
// (max − min, 1 when degenerate), nanos_c the encode latency, and
// minNanos the fastest. Then
//
//	score_c = wRatio·(minBytes/bytes_c)
//	        − wError·(err_c/range)
//	        − wLatency·(nanos_c/minNanos − 1)
//
// Higher is better; the ratio term is 1 for the smallest candidate and
// shrinks proportionally, the error term is the frame-relative L∞
// error, the latency term is the slowdown over the fastest trial.
// Candidates whose L∞ error exceeds MaxError (when set) are
// disqualified regardless of score. With the default weights
// (wError = wLatency = 0) the winner is simply the smallest qualifying
// encoding, which guarantees the assigned total is no larger than any
// single uniform candidate's total; nonzero wError/wLatency trade
// bytes for fidelity or encode speed.
package tune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// Weights are the scoring weights; see the package comment for the
// formula.
type Weights struct {
	Ratio   float64 `json:"ratio"`
	Error   float64 `json:"error"`
	Latency float64 `json:"latency"`
}

// DefaultWeights scores by compressed size alone: the winner is the
// smallest qualifying encoding, so the assigned total provably beats
// (well, never exceeds) every uniform candidate.
var DefaultWeights = Weights{Ratio: 1, Error: 0, Latency: 0}

// Options configures a tuning run.
type Options struct {
	// Candidates are the codec specs to trial. Required, at least one.
	Candidates []string
	// MaxError disqualifies a candidate on any frame where its L∞
	// reconstruction error exceeds this budget; 0 means no budget.
	MaxError float64
	// Weights are the scoring weights; the zero value means
	// DefaultWeights.
	Weights Weights
	// SampleEvery trials only every k-th frame; skipped frames inherit
	// the most recent trialed frame's winner (checkpoint series drift
	// slowly, so neighbors compress alike). 0 or 1 trials every frame.
	SampleEvery int
}

// Trial is one (frame, candidate) measurement.
type Trial struct {
	Spec string `json:"spec"`
	// Bytes is the encoded payload size; 0 when the encode failed.
	Bytes int     `json:"bytes"`
	Ratio float64 `json:"ratio"` // raw float64 bytes / encoded bytes
	// MaxError and RMSE measure reconstruction error against the input.
	MaxError     float64 `json:"maxError"`
	RMSE         float64 `json:"rmse"`
	EncodeMillis float64 `json:"encodeMillis"`
	Score        float64 `json:"score"`
	// Disqualified marks a trial over the MaxError budget.
	Disqualified bool `json:"disqualified,omitempty"`
	// Error records an encode/decode failure (such a candidate never
	// wins the frame).
	Error string `json:"error,omitempty"`
}

// FrameDecision is one frame's outcome: the winning spec plus the full
// trial row.
type FrameDecision struct {
	Index    int    `json:"index"`
	Label    int    `json:"label"`
	RawBytes int    `json:"rawBytes"`
	Chosen   string `json:"chosen"`
	// Sampled is false when the frame was not trialed (SampleEvery > 1)
	// and inherited its neighbor's winner; such frames have no Trials.
	Sampled bool    `json:"sampled"`
	Trials  []Trial `json:"trials,omitempty"`
}

// UniformTotal is the whole-series size of one candidate used
// uniformly, for comparison against the assignment.
type UniformTotal struct {
	Spec  string `json:"spec"`
	Bytes int64  `json:"bytes"`
	// Qualified is false when the candidate failed or exceeded the
	// error budget on at least one trialed frame — it could not legally
	// compress the whole series.
	Qualified bool `json:"qualified"`
}

// Report is a tuning run's full output, serialized by `goblaz tune`.
type Report struct {
	Candidates []string        `json:"candidates"`
	MaxError   float64         `json:"maxError,omitempty"`
	Weights    Weights         `json:"weights"`
	Frames     []FrameDecision `json:"frames"`
	// RawBytes and AssignedBytes total the trialed frames only: raw
	// float64 size and the chosen candidates' encoded sizes.
	RawBytes      int64 `json:"rawBytes"`
	AssignedBytes int64 `json:"assignedBytes"`
	// Uniform totals each candidate over the same trialed frames.
	Uniform []UniformTotal `json:"uniform"`
	// BestUniform is the smallest qualified uniform candidate.
	BestUniform      string `json:"bestUniform,omitempty"`
	BestUniformBytes int64  `json:"bestUniformBytes,omitempty"`
	// Savings is 1 − assigned/bestUniform, the fraction of the best
	// uniform total the assignment saves.
	Savings float64 `json:"savings,omitempty"`
}

// Assignment returns the label → spec map the pack layer consumes.
func (r *Report) Assignment() map[int]string {
	m := make(map[int]string, len(r.Frames))
	for _, f := range r.Frames {
		m[f.Label] = f.Chosen
	}
	return m
}

// FrameFunc supplies the i-th frame, mirroring shard.FrameFunc.
type FrameFunc func(i int) (*tensor.Tensor, error)

// Run trials every candidate against the series and returns the full
// report. frame is called once per trialed frame; ctx cancels between
// frames.
func Run(ctx context.Context, labels []int, frame FrameFunc, opts Options) (*Report, error) {
	if len(opts.Candidates) == 0 {
		return nil, fmt.Errorf("tune: no candidate specs")
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("tune: no frames")
	}
	w := opts.Weights
	if w == (Weights{}) {
		w = DefaultWeights
	}
	coders := make([]codec.Coder, len(opts.Candidates))
	for i, spec := range opts.Candidates {
		coder, err := codec.Lookup(spec)
		if err != nil {
			return nil, fmt.Errorf("tune: candidate %q: %w", spec, err)
		}
		coders[i] = coder
	}
	every := opts.SampleEvery
	if every < 1 {
		every = 1
	}

	rep := &Report{
		Candidates: append([]string(nil), opts.Candidates...),
		MaxError:   opts.MaxError,
		Weights:    w,
		Frames:     make([]FrameDecision, len(labels)),
	}

	// Trial the sampled frames in parallel; the
	// last-winner inheritance for skipped frames is resolved afterwards,
	// sequentially.
	sampled := make([]int, 0, (len(labels)+every-1)/every)
	for i := 0; i < len(labels); i += every {
		sampled = append(sampled, i)
	}
	errs := make([]error, len(sampled))
	if err := tensor.ParallelForCoarseCtx(ctx, len(sampled), func(j int) {
		i := sampled[j]
		t, err := frame(i)
		if err != nil {
			errs[j] = fmt.Errorf("tune: frame %d (label %d): %w", i, labels[i], err)
			return
		}
		rep.Frames[i] = decideFrame(i, labels[i], t, opts.Candidates, coders, opts.MaxError, w)
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	// Inherit winners for skipped frames and total everything.
	uniform := make([]int64, len(opts.Candidates))
	qualified := make([]bool, len(opts.Candidates))
	for i := range qualified {
		qualified[i] = true
	}
	last := ""
	for i := range rep.Frames {
		f := &rep.Frames[i]
		if !f.Sampled {
			f.Index, f.Label, f.Chosen = i, labels[i], last
			continue
		}
		if f.Chosen == "" {
			return nil, fmt.Errorf("tune: frame %d (label %d): every candidate failed or exceeded the error budget",
				i, labels[i])
		}
		last = f.Chosen
		rep.RawBytes += int64(f.RawBytes)
		for c, tr := range f.Trials {
			if tr.Error != "" || tr.Disqualified {
				qualified[c] = false
			}
			uniform[c] += int64(tr.Bytes)
			if tr.Spec == f.Chosen {
				rep.AssignedBytes += int64(tr.Bytes)
			}
		}
	}
	for c, spec := range opts.Candidates {
		u := UniformTotal{Spec: spec, Bytes: uniform[c], Qualified: qualified[c]}
		rep.Uniform = append(rep.Uniform, u)
		if u.Qualified && (rep.BestUniform == "" || u.Bytes < rep.BestUniformBytes) {
			rep.BestUniform, rep.BestUniformBytes = u.Spec, u.Bytes
		}
	}
	if rep.BestUniformBytes > 0 {
		rep.Savings = 1 - float64(rep.AssignedBytes)/float64(rep.BestUniformBytes)
	}
	return rep, nil
}

// decideFrame runs every candidate against one frame and scores them.
func decideFrame(index, label int, t *tensor.Tensor, specs []string, coders []codec.Coder, maxErr float64, w Weights) FrameDecision {
	f := FrameDecision{
		Index: index, Label: label, RawBytes: t.Len() * 8,
		Sampled: true, Trials: make([]Trial, len(specs)),
	}
	rng := t.Max() - t.Min()
	if rng <= 0 || math.IsNaN(rng) || math.IsInf(rng, 0) {
		rng = 1
	}
	minBytes, minNanos := math.MaxInt, int64(math.MaxInt64)
	for c, coder := range coders {
		tr := &f.Trials[c]
		tr.Spec = specs[c]
		start := time.Now()
		comp, err := coder.Compress(t)
		var payload []byte
		if err == nil {
			payload, err = coder.Encode(comp)
		}
		nanos := time.Since(start).Nanoseconds()
		if err != nil {
			tr.Error = err.Error()
			continue
		}
		back, err := coder.Decompress(comp)
		if err != nil {
			tr.Error = err.Error()
			continue
		}
		tr.Bytes = len(payload)
		tr.Ratio = float64(f.RawBytes) / float64(len(payload))
		tr.MaxError = t.MaxAbsDiff(back)
		tr.RMSE = t.RMSE(back)
		tr.EncodeMillis = float64(nanos) / 1e6
		if maxErr > 0 && tr.MaxError > maxErr {
			tr.Disqualified = true
		}
		minBytes = min(minBytes, tr.Bytes)
		if nanos > 0 {
			minNanos = min(minNanos, nanos)
		}
	}
	best := -1
	for c := range f.Trials {
		tr := &f.Trials[c]
		if tr.Error != "" {
			continue
		}
		nanos := tr.EncodeMillis * 1e6
		latPenalty := 0.0
		if minNanos > 0 && minNanos != int64(math.MaxInt64) {
			latPenalty = nanos/float64(minNanos) - 1
		}
		tr.Score = w.Ratio*(float64(minBytes)/float64(tr.Bytes)) -
			w.Error*(tr.MaxError/rng) -
			w.Latency*latPenalty
		if tr.Disqualified {
			continue
		}
		// Winner: best score; ties (equal score) go to fewer bytes, then
		// to candidate order.
		if best < 0 || tr.Score > f.Trials[best].Score ||
			(tr.Score == f.Trials[best].Score && tr.Bytes < f.Trials[best].Bytes) {
			best = c
		}
	}
	if best >= 0 {
		f.Chosen = f.Trials[best].Spec
	}
	return f
}

// Coders resolves the assignment's distinct specs once and returns an
// assign function for series.NewAssignedPipeline /
// shard.WriteDatasetAssigned: each label compresses under its chosen
// spec, falling back to fallbackSpec for labels the report never saw.
func (r *Report) Coders(fallbackSpec string) (func(label int, t *tensor.Tensor) (codec.Coder, error), error) {
	byLabel := r.Assignment()
	bySpec := map[string]codec.Coder{}
	resolve := func(spec string) (codec.Coder, error) {
		if coder, ok := bySpec[spec]; ok {
			return coder, nil
		}
		coder, err := codec.Lookup(spec)
		if err != nil {
			return nil, err
		}
		bySpec[spec] = coder
		return coder, nil
	}
	// Pre-resolve every assigned spec (and the fallback) so the returned
	// closure only reads the map — pipeline workers call it concurrently.
	if _, err := resolve(fallbackSpec); err != nil {
		return nil, err
	}
	for _, spec := range byLabel {
		if _, err := resolve(spec); err != nil {
			return nil, err
		}
	}
	return func(label int, _ *tensor.Tensor) (codec.Coder, error) {
		spec, ok := byLabel[label]
		if !ok {
			spec = fallbackSpec
		}
		return bySpec[spec], nil
	}, nil
}
