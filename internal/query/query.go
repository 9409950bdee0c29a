// Package query is the compressed-domain query engine: it answers
// aggregate, pairwise-metric, region, and point questions over the
// frames of a store.Reader, preferring compressed-space execution
// (codec.Moments / codec.Extrema for aggregates and reductions, codec.Ops
// for pairwise metrics, codec.RegionReader for regions and points) and
// falling back to decode-then-compute — through a shared byte-budgeted
// LRU cache of decoded frames — for codecs or frames that cannot.
//
// A Request selects frames by label glob and/or index range and names
// the work; Compile validates it against a store into a Plan; an Engine
// executes the plan, fanning per-frame work out over goroutines the
// request starts and waits for itself. Results carry an
// executedInCompressedSpace flag per frame (true iff answering never
// fully decompressed that frame) so callers and benchmarks can prove
// where the compressed-space paths paid off.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path"
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Source is the frame collection a query runs over. store.Reader
// satisfies it directly; shard.Dataset satisfies it with a virtual
// concatenated view over many stores, which is what lets one Engine
// answer cross-shard questions (pairwise metrics, references in another
// shard) with exactly single-store semantics. Implementations must be
// safe for concurrent use; Info's positions are commit order.
type Source interface {
	Index
	FrameSpeccer
	// Frame reads and decodes frame i into the codec's compressed
	// representation.
	Frame(i int) (codec.Compressed, error)
	// Decompress reads, decodes, and fully decompresses frame i. The
	// engine never calls it; api.Local.Frame does, and it sits here
	// rather than on api.Source because bench/ reads it through Source.
	Decompress(i int) (*tensor.Tensor, error)
}

// Index is the part of a Source that Compile reads: resolving a
// selection needs the frame count, labels and label lookup, never frame
// data — so a tier that holds no frames locally (cluster.Coordinator)
// compiles against its discovered inventory.
type Index interface {
	// Len returns the number of frames.
	Len() int
	// Info returns the index entry of frame i.
	Info(i int) store.FrameInfo
	// IndexOf returns the position of the frame with the given label.
	IndexOf(label int) (int, bool)
}

// FrameKeyer is an optional Source capability: a stable, process-wide
// identity for frame i, shared by every view of the same underlying
// frame. Engines use it to key the decoded-frame cache, so engines
// sharing one Cache over the same store file hit each other's entries
// instead of decoding (and holding) the frame twice. store.Reader and
// shard.Dataset both implement it; sources without it (the coordinator's
// fetched payloads) cache under a private per-engine namespace.
type FrameKeyer interface {
	FrameKey(i int) (source uint64, frame int)
}

// FrameSpeccer is the per-frame codec part of a Source: every frame may
// carry its own spec (store format v2). Engines decode each frame with
// the codec that wrote it and gate compressed-space pairwise metrics on
// spec equality — compressed arithmetic between frames of different
// codecs falls back to decode-then-compute. A codec-uniform source
// answers Specs with one spec.
type FrameSpeccer interface {
	// FrameSpec returns the codec spec of frame i (the source default
	// for most frames of most stores).
	FrameSpec(i int) string
	// FrameCoder returns the codec that wrote frame i.
	FrameCoder(i int) (codec.Coder, error)
	// Specs returns every spec the source uses, default first.
	Specs() []string
}

// PayloadAppender reads frame i's raw compressed payload into
// caller-supplied scratch instead of a fresh allocation. The engine
// does not use it — it always loads through Source.Frame — and it is
// kept for bench/, which decodes pooled scratch through it, until the
// benchmark moves onto Frame. store.Reader and shard.Dataset both
// implement it.
type PayloadAppender interface {
	PayloadAppend(dst []byte, i int) ([]byte, error)
}

// ErrBadRequest marks request-validation failures (unknown aggregate,
// empty selection, out-of-bounds region, ...). HTTP frontends map it to
// 400 with errors.Is; everything else is a server-side failure.
var ErrBadRequest = errors.New("query: bad request")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// DecodeJSON reads exactly one JSON value from r into v, rejecting
// unknown fields and anything but whitespace after the value: a second
// value or trailing garbage is an error, not silently dropped. It reads
// the JSON that comes from outside the program — query bodies and
// -req files, dataset manifests, cluster topologies. A read error,
// before or after the value, comes back wrapped.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return errors.New("data after the JSON value")
	default:
		return fmt.Errorf("after the JSON value: %w", err)
	}
}

// The aggregate kinds. Every kind has a compressed-space entry point:
// mean, variance, stddev and l2norm all derive from one codec.Moments
// call, min and max come from codec.Extrema. Which path runs is decided
// per frame, by what the frame's codec implements and serves.
const (
	AggMean     = "mean"
	AggVariance = "variance"
	AggStdDev   = "stddev"
	AggMin      = "min"
	AggMax      = "max"
	AggL2Norm   = "l2norm"
)

// The pairwise metric kinds; all four have compressed-space entry
// points.
const (
	MetricMSE    = "mse"
	MetricPSNR   = "psnr"
	MetricDot    = "dot"
	MetricCosine = "cosine"
)

var aggKinds = map[string]bool{
	AggMean: true, AggVariance: true, AggStdDev: true, AggMin: true, AggMax: true, AggL2Norm: true,
}

var metricKinds = map[string]bool{
	MetricMSE: true, MetricPSNR: true, MetricDot: true, MetricCosine: true,
}

// Request is the query model, the JSON body of POST /v1/query. At least
// one of Aggregates, Metric, Region, or Point must be present.
type Request struct {
	// Select picks the frames to answer over; the zero value selects
	// every frame.
	Select Selector `json:"select"`
	// Aggregates lists per-frame statistics to compute:
	// mean|variance|stddev|min|max|l2norm.
	Aggregates []string `json:"aggregates,omitempty"`
	// Metric compares frames: each selected frame against a reference
	// label, or — when Against is omitted — exactly two selected frames
	// against each other.
	Metric *MetricRequest `json:"metric,omitempty"`
	// Region reads an axis-aligned sub-array from each selected frame.
	Region *RegionRequest `json:"region,omitempty"`
	// Point reads the single element at this multi-index from each
	// selected frame.
	Point []int `json:"point,omitempty"`
	// Reduce lists dataset-level aggregates (same kinds as Aggregates)
	// computed over the elements of every selected frame together, as if
	// the selection were one virtual array. Partial moments merge (see
	// Moments), which is what lets a cluster coordinator answer the same
	// reduction by combining per-shard partials.
	Reduce []string `json:"reduce,omitempty"`
}

// Selector picks frames by label glob and/or index range; conditions
// present are intersected.
type Selector struct {
	// Labels is a path.Match glob over the decimal frame label, e.g.
	// "42", "1?", "*". Empty matches every label.
	Labels string `json:"labels,omitempty"`
	// From/To bound the frame positions (commit order) half-open:
	// From ≤ index < To. Nil means unbounded.
	From *int `json:"from,omitempty"`
	To   *int `json:"to,omitempty"`
}

// MetricRequest names a pairwise metric: mse|psnr|dot|cosine.
type MetricRequest struct {
	Kind string `json:"kind"`
	// Against is the reference frame's label; when nil the selection
	// must be exactly two frames, compared with each other.
	Against *int `json:"against,omitempty"`
	// Peak is the data's peak value for PSNR; defaults to 1.
	Peak float64 `json:"peak,omitempty"`
}

// RegionRequest is an axis-aligned sub-array read: offset (inclusive)
// and shape per dimension, validated against each frame's bounds at
// execution.
type RegionRequest struct {
	Offset []int `json:"offset"`
	Shape  []int `json:"shape"`
}

// Float is a float64 that survives JSON: the IEEE non-finite values —
// the PSNR of identical frames is +Inf, aggregates over NaN data are
// NaN — encode as the strings "+Inf"/"-Inf"/"NaN" instead of failing
// encoding/json and turning an otherwise-computed result into a 500.
// Every other value encodes as the number encoding/json writes for a
// float64. Region values follow the same rule (RegionResult).
type Float float64

// MarshalJSON writes f by Float's rule, through the same number writer
// as AppendResult.
func (f Float) MarshalJSON() ([]byte, error) {
	return appendFloat(make([]byte, 0, 24), float64(f)), nil
}

// UnmarshalJSON reads a JSON number, one of the strings "+Inf", "-Inf"
// and "NaN", or null (zero).
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			return fmt.Errorf("query: bad Float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Result is a query answer.
type Result struct {
	// Spec is the store's default codec spec.
	Spec string `json:"spec"`
	// Specs lists every codec spec the source uses, default first —
	// present only for mixed-codec sources (more than one spec). The
	// engine resolves it once and shares it across results: read-only.
	Specs []string `json:"specs,omitempty"`
	// Frames holds one entry per selected frame, in commit order.
	Frames []FrameResult `json:"frames"`
	// Pair holds the two-frame metric when the request used the
	// pairwise (no-reference) form.
	Pair *PairResult `json:"pair,omitempty"`
	// Reduced holds the dataset-level reduction when the request asked
	// for one, including the mergeable moment state.
	Reduced *ReducedResult `json:"reduced,omitempty"`
	// ExecutedInCompressedSpace is true iff every frame's work ran
	// without full decompression.
	ExecutedInCompressedSpace bool `json:"executedInCompressedSpace"`
}

// FrameResult is one frame's share of a query answer.
type FrameResult struct {
	Index int `json:"index"`
	Label int `json:"label"`
	// Spec is this frame's codec spec when it differs from the source
	// default (mixed-codec stores); empty otherwise.
	Spec string `json:"spec,omitempty"`
	// Aggregates maps requested aggregate kind → value.
	Aggregates map[string]Float `json:"aggregates,omitempty"`
	// Metric is this frame's metric against the reference frame.
	Metric *Float `json:"metric,omitempty"`
	// Region is the requested sub-array read from this frame.
	Region *RegionResult `json:"region,omitempty"`
	// Point is the requested element of this frame.
	Point *Float `json:"point,omitempty"`
	// ExecutedInCompressedSpace is true iff this frame was never fully
	// decompressed while answering (compressed-space aggregates and
	// metrics, or block-local partial decode for region/point reads).
	ExecutedInCompressedSpace bool `json:"executedInCompressedSpace"`
}

// RegionResult is a decoded sub-array, row-major. Its values encode by
// Float's rule: a NaN or ±Inf read from a frame whose coefficients
// overflowed their float type is the string "NaN", "+Inf" or "-Inf",
// not an encoding failure.
type RegionResult struct {
	Offset []int     `json:"offset"`
	Shape  []int     `json:"shape"`
	Values []float64 `json:"values"`
}

// MarshalJSON writes r as encoding/json writes the struct, with its
// values by Float's rule.
func (r RegionResult) MarshalJSON() ([]byte, error) {
	return appendRegion(nil, &r), nil
}

// UnmarshalJSON reads r as encoding/json reads the struct, with its
// values by Float's rule.
func (r *RegionResult) UnmarshalJSON(b []byte) error {
	// Decoding over r's current contents keeps encoding/json's semantics
	// for a key the body leaves out.
	w := struct {
		Offset []int   `json:"offset"`
		Shape  []int   `json:"shape"`
		Values []Float `json:"values"`
	}{Offset: r.Offset, Shape: r.Shape}
	if r.Values != nil {
		w.Values = make([]Float, len(r.Values))
		for i, v := range r.Values {
			w.Values[i] = Float(v)
		}
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	r.Offset, r.Shape, r.Values = w.Offset, w.Shape, nil
	if w.Values != nil {
		r.Values = make([]float64, len(w.Values))
		for i, v := range w.Values {
			r.Values[i] = float64(v)
		}
	}
	return nil
}

// PairResult is the two-frame metric of a pairwise request; A and B are
// the two frames' labels in selection order.
type PairResult struct {
	A                         int    `json:"a"`
	B                         int    `json:"b"`
	Kind                      string `json:"kind"`
	Value                     Float  `json:"value"`
	ExecutedInCompressedSpace bool   `json:"executedInCompressedSpace"`
}

// Plan is a compiled, validated query: resolved frame positions plus
// the work list. Build one with Compile, run it with Engine.Execute.
type Plan struct {
	frames   []int // store positions, commit order
	aggs     []string
	metric   *MetricRequest
	refIndex int  // store position of the reference frame: in pair mode, the second selected frame's
	pairMode bool // metric over exactly two selected frames
	region   *RegionRequest
	point    *RegionRequest // a point read: the region of unit shape at the point
	reduce   []string

	aggsMinMax   bool // the aggregates include min or max (codec.Extrema)
	reduceMinMax bool // the reduction needs extrema (codec.Extrema)
}

// Compile validates req against the source and resolves the selection
// into a Plan. All failures wrap ErrBadRequest.
func Compile(src Index, req *Request) (*Plan, error) {
	if req == nil {
		return nil, badf("nil request")
	}
	p := &Plan{}

	if len(req.Aggregates) == 0 && req.Metric == nil && req.Region == nil && len(req.Point) == 0 && len(req.Reduce) == 0 {
		return nil, badf("empty query: request aggregates, a metric, a region, a point, or a reduction")
	}

	// Both kind lists are sized up front: grown one append at a time, a
	// three-aggregate request paid three allocations for its list.
	p.aggs = make([]string, 0, len(req.Aggregates))
	p.reduce = make([]string, 0, len(req.Reduce))
	seen := map[string]bool{}
	for _, kind := range req.Aggregates {
		if !aggKinds[kind] {
			return nil, badf("unknown aggregate %q (have mean|variance|stddev|min|max|l2norm)", kind)
		}
		if seen[kind] {
			continue
		}
		seen[kind] = true
		p.aggs = append(p.aggs, kind)
		p.aggsMinMax = p.aggsMinMax || kind == AggMin || kind == AggMax
	}

	seenReduce := map[string]bool{}
	for _, kind := range req.Reduce {
		if !aggKinds[kind] {
			return nil, badf("unknown reduce aggregate %q (have mean|variance|stddev|min|max|l2norm)", kind)
		}
		if seenReduce[kind] {
			continue
		}
		seenReduce[kind] = true
		p.reduce = append(p.reduce, kind)
		p.reduceMinMax = p.reduceMinMax || kind == AggMin || kind == AggMax
	}

	frames, err := selectFrames(src, req.Select)
	if err != nil {
		return nil, err
	}
	p.frames = frames

	if m := req.Metric; m != nil {
		if !metricKinds[m.Kind] {
			return nil, badf("unknown metric %q (have mse|psnr|dot|cosine)", m.Kind)
		}
		mc := *m
		if mc.Peak == 0 {
			mc.Peak = 1
		}
		if mc.Kind == MetricPSNR && mc.Peak <= 0 {
			return nil, badf("psnr peak %g must be positive", mc.Peak)
		}
		if m.Against != nil {
			ref, ok := src.IndexOf(*m.Against)
			if !ok {
				return nil, badf("metric reference label %d not in store", *m.Against)
			}
			p.refIndex = ref
		} else {
			if len(frames) != 2 {
				return nil, badf("pairwise metric needs exactly 2 selected frames, selection has %d", len(frames))
			}
			p.refIndex, p.pairMode = frames[1], true
		}
		p.metric = &mc
	}

	if reg := req.Region; reg != nil {
		if len(reg.Offset) == 0 || len(reg.Offset) != len(reg.Shape) {
			return nil, badf("region offset %v and shape %v must be non-empty and equal length",
				reg.Offset, reg.Shape)
		}
		p.region = reg
	}
	if len(req.Point) > 0 {
		unit := make([]int, len(req.Point))
		for i := range unit {
			unit[i] = 1
		}
		p.point = &RegionRequest{Offset: req.Point, Shape: unit}
	}
	return p, nil
}

// Frames returns the selected store positions, in commit order.
func (p *Plan) Frames() []int { return append([]int(nil), p.frames...) }

// Reduce returns the validated, deduplicated reduce kinds, in request
// order — the list Execute derives Result.Reduced from, exposed so a
// scatter-gather merger reduces exactly the kinds the plan did.
func (p *Plan) Reduce() []string { return append([]string(nil), p.reduce...) }

// literalLabel reports whether glob can only match one label's decimal
// spelling — no metacharacter, and exactly what strconv.Itoa prints, so
// "007" and "+5" keep matching nothing — and returns that label.
func literalLabel(glob string) (int, bool) {
	if glob == "" || strings.ContainsAny(glob, `*?[\`) {
		return 0, false
	}
	n, err := strconv.Atoi(glob)
	return n, err == nil && strconv.Itoa(n) == glob
}

// selectFrames resolves a Selector to store positions.
func selectFrames(src Index, sel Selector) ([]int, error) {
	if sel.Labels != "" {
		// Surface glob syntax errors before, not during, the scan.
		if _, err := path.Match(sel.Labels, "0"); err != nil {
			return nil, badf("bad label glob %q", sel.Labels)
		}
	}
	from, to := 0, src.Len()
	if sel.From != nil {
		from = max(*sel.From, 0)
	}
	if sel.To != nil {
		to = min(*sel.To, src.Len())
	}
	var frames []int
	if label, ok := literalLabel(sel.Labels); ok {
		// One label names at most one frame (labels are unique): look it
		// up instead of spelling every stored label to match it.
		if i, found := src.IndexOf(label); found && i >= from && i < to {
			frames = []int{i}
		}
	} else if sel.Labels == "" {
		// A range selects every position in it, so its result is sized once.
		frames = make([]int, 0, max(to-from, 0))
		for i := from; i < to; i++ {
			frames = append(frames, i)
		}
	} else {
		for i := from; i < to; i++ {
			if ok, _ := path.Match(sel.Labels, strconv.Itoa(src.Info(i).Label)); ok {
				frames = append(frames, i)
			}
		}
	}
	if len(frames) == 0 {
		return nil, badf("selection (labels %q, range [%d, %d)) matches no frames", sel.Labels, from, to)
	}
	return frames, nil
}
