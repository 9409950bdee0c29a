package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options configures an Engine.
type Options struct {
	// CacheBytes budgets the decoded-frame LRU cache; ≤ 0 disables it.
	// Ignored when Cache is set.
	CacheBytes int64
	// Cache, when non-nil, is used instead of a private cache, sharing
	// one byte budget across every engine built over it (an ingest store
	// budgets all its generations' engines this way). Entries key by the
	// source's stable frame identity (FrameKeyer), so sharing never
	// aliases frames of different stores, while engines over the same
	// store file share decodes.
	Cache *Cache
	// ForceDecode disables the compressed-space and partial-decode
	// paths, so every frame is answered decode-then-compute. For
	// benchmarks and differential tests; production callers leave it
	// false.
	ForceDecode bool
}

// Engine executes query plans against one frame source. It is safe for
// concurrent use — sources are concurrency-safe, the cache locks
// internally, and per-query state lives on the stack.
type Engine struct {
	src         Source
	keyer       FrameKeyer // nil when src has no stable frame identity
	spec        string     // src's default spec
	specs       []string   // every spec src uses when more than one, else nil
	cache       *Cache
	ns          uint64 // fallback cache namespace for keyerless sources
	forceDecode bool

	// capsMu guards capsBySpec, the per-spec capability cache: codec
	// construction and interface assertions happen once per distinct
	// spec, not per frame, however many frames a mixed store holds.
	capsMu     sync.Mutex
	capsBySpec map[string]*frameCaps
}

// frameCaps is one codec spec's resolved execution capabilities. ops,
// moments, ext and rr are nil when the codec lacks the interface or the
// engine forces decode.
type frameCaps struct {
	spec    string
	coder   codec.Coder
	ops     codec.Ops
	moments codec.Moments
	ext     codec.Extrema
	rr      codec.RegionReader
}

// engineNS hands each engine a process-unique cache namespace.
var engineNS atomic.Uint64

// New returns an engine over src — a *store.Reader, or any other
// Source implementation (a sharded dataset's concatenated view). Sources
// are immutable, so src's spec list is resolved here, once.
func New(src Source, opts Options) *Engine {
	cache := opts.Cache
	if cache == nil {
		cache = NewCache(opts.CacheBytes)
	}
	keyer, _ := src.(FrameKeyer)
	specs := src.Specs()
	e := &Engine{
		src:         src,
		keyer:       keyer,
		spec:        specs[0],
		cache:       cache,
		ns:          engineNS.Add(1),
		forceDecode: opts.ForceDecode,
		capsBySpec:  make(map[string]*frameCaps),
	}
	if len(specs) > 1 {
		e.specs = specs
	}
	return e
}

// capsFor resolves the execution capabilities of frame i's codec,
// memoized per spec.
func (e *Engine) capsFor(i int) (*frameCaps, error) {
	spec := e.src.FrameSpec(i)
	e.capsMu.Lock()
	defer e.capsMu.Unlock()
	if c, ok := e.capsBySpec[spec]; ok {
		return c, nil
	}
	coder, err := e.src.FrameCoder(i)
	if err != nil {
		return nil, err
	}
	c := &frameCaps{spec: spec, coder: coder}
	if !e.forceDecode {
		c.ops, _ = coder.(codec.Ops)
		c.moments, _ = coder.(codec.Moments)
		c.ext, _ = coder.(codec.Extrema)
		c.rr, _ = coder.(codec.RegionReader)
	}
	e.capsBySpec[spec] = c
	return c, nil
}

// cacheKeyOf maps frame i to its cache identity: the source's stable
// frame key when it has one, else this engine's private namespace.
func (e *Engine) cacheKeyOf(i int) (uint64, int) {
	if e.keyer != nil {
		return e.keyer.FrameKey(i)
	}
	return e.ns, i
}

// Cache exposes the engine's decoded-frame cache (for stats endpoints).
func (e *Engine) Cache() *Cache { return e.cache }

// Run compiles and executes req. Canceling ctx stops the plan between
// frames — the engine returns ctx's error within one frame's work.
func (e *Engine) Run(ctx context.Context, req *Request) (*Result, error) {
	p, err := Compile(e.src, req)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, p)
}

// Execute runs a compiled plan, fanning per-frame work out over at most
// GOMAXPROCS goroutines of its own. ctx is re-checked before every frame's
// work, so a dropped connection or an expired CLI deadline abandons the
// remaining frames instead of decompressing them for nobody.
func (e *Engine) Execute(ctx context.Context, p *Plan) (*Result, error) {
	ctx, span := obs.DefaultTracer.Start(ctx, "query.execute")
	span.SetDetail("frames=%d", len(p.frames))
	defer span.End()

	// Resolving frame 0's caps up front surfaces an unusable default
	// codec as one error instead of one per frame.
	if len(p.frames) > 0 {
		if _, err := e.capsFor(p.frames[0]); err != nil {
			return nil, err
		}
	}

	// The reference frame of a metric is shared by every frame task, so
	// it is materialized at most once per Execute: the compressed form
	// eagerly when its codec has Ops, and the full decompression lazily
	// and memoized — one decode serves all N frame tasks even with the
	// cache disabled, and a purely compressed-space query never triggers
	// it at all. A pair metric is the first selected frame's metric
	// against the second as its reference.
	var ref *refFrame
	if p.metric != nil {
		refCaps, err := e.capsFor(p.refIndex)
		if err != nil {
			return nil, err
		}
		ref = &refFrame{caps: refCaps}
		if refCaps.ops != nil {
			if ref.c, err = e.src.Frame(p.refIndex); err != nil {
				return nil, err
			}
		}
	}

	frames := make([]FrameResult, len(p.frames))
	var moments []Moments
	if len(p.reduce) > 0 {
		moments = make([]Moments, len(p.frames))
	}
	errs := make([]error, len(p.frames))
	if err := tensor.ParallelForCoarseCtx(ctx, len(p.frames), func(j int) {
		var mom *Moments
		if moments != nil {
			mom = &moments[j]
		}
		frames[j], errs[j] = e.runFrame(ctx, p, p.frames[j], ref, mom)
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	var pair *PairResult
	if p.pairMode {
		// The metric fell back iff it decompressed the reference, and
		// then it decompressed both selected frames, so both per-frame
		// flags must say so.
		compressed := ref.t == nil
		pair = &PairResult{
			A: frames[0].Label, B: frames[1].Label,
			Kind: p.metric.Kind, Value: *frames[0].Metric, ExecutedInCompressedSpace: compressed,
		}
		frames[0].Metric = nil
		frames[1].ExecutedInCompressedSpace = frames[1].ExecutedInCompressedSpace && compressed
	}

	res := &Result{Spec: e.spec, Specs: e.specs, Frames: frames, Pair: pair, ExecutedInCompressedSpace: true}
	for i := range frames {
		res.ExecutedInCompressedSpace = res.ExecutedInCompressedSpace && frames[i].ExecutedInCompressedSpace
	}
	if moments != nil {
		// Fold in frame order, so the merge is deterministic for a given
		// selection.
		total := EmptyMoments()
		for _, m := range moments {
			total.Merge(m)
		}
		reduced, err := total.Reduced(p.reduce)
		if err != nil {
			return nil, err
		}
		res.Reduced = reduced
	}
	for i := range frames {
		if frames[i].ExecutedInCompressedSpace {
			framesCompressed.Inc()
		} else {
			framesFallback.Inc()
		}
	}
	if res.ExecutedInCompressedSpace {
		requestsCompressed.Inc()
	} else {
		requestsFallback.Inc()
	}
	return res, nil
}

// refFrame is the shared reference frame of a metric: its capabilities,
// its compressed form (loaded iff its codec has Ops), and its memoized
// full decompression — one allocation for the lot.
type refFrame struct {
	caps *frameCaps
	c    codec.Compressed
	once sync.Once
	t    *tensor.Tensor
	err  error
}

// decoded returns the reference, frame i of e, fully decompressed: the
// first caller decodes it, every other frame task shares that result.
func (r *refFrame) decoded(ctx context.Context, e *Engine, i int) (*tensor.Tensor, error) {
	r.once.Do(func() { r.t, r.err = e.decodedFrom(ctx, i, r.c) })
	return r.t, r.err
}

// runFrame answers one frame's share of the plan under the codec that
// wrote the frame. The compressed representation (payload decode, no
// inverse transform) and the full decompression are both loaded at most
// once, the latter through the LRU cache; the frame's
// ExecutedInCompressedSpace flag is true iff the full decompression was
// never needed.
func (e *Engine) runFrame(ctx context.Context, p *Plan, i int, ref *refFrame, mom *Moments) (FrameResult, error) {
	out := FrameResult{Index: i, Label: e.src.Info(i).Label, ExecutedInCompressedSpace: true}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	caps, err := e.capsFor(i)
	if err != nil {
		return out, err
	}
	if caps.spec != e.spec {
		out.Spec = caps.spec
	}
	mo, ext, rr := caps.moments, caps.ext, caps.rr

	var fc codec.Compressed
	loadC := func() (codec.Compressed, error) {
		if fc == nil {
			var err error
			if fc, err = e.src.Frame(i); err != nil {
				return nil, err
			}
		}
		return fc, nil
	}
	var ft *tensor.Tensor
	decode := func() (*tensor.Tensor, error) {
		if ft == nil {
			var err error
			if ft, err = e.decodedFrom(ctx, i, fc); err != nil {
				return nil, err
			}
			out.ExecutedInCompressedSpace = false
		}
		return ft, nil
	}

	if len(p.aggs) > 0 {
		m, compressed, err := e.frameMoments(mo, ext, p.aggsMinMax, loadC, decode)
		if err == nil {
			if compressed {
				out.Aggregates = m.compressedValues(p.aggs)
			} else {
				out.Aggregates, err = m.values(p.aggs)
			}
		}
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) aggregates: %w", i, out.Label, err)
		}
	}

	if p.metric != nil && (!p.pairMode || i == p.frames[0]) {
		v, err := e.frameMetric(ctx, p, caps, ref, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) %s vs label %d: %w",
				i, out.Label, p.metric.Kind, e.src.Info(p.refIndex).Label, err)
		}
		fv := Float(v)
		out.Metric = &fv
	}

	if reg := p.region; reg != nil {
		t, err := frameRegion(reg, rr, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) region: %w", i, out.Label, err)
		}
		out.Region = &RegionResult{Offset: reg.Offset, Shape: reg.Shape, Values: t.Data()}
	}

	if p.point != nil {
		t, err := frameRegion(p.point, rr, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) point: %w", i, out.Label, err)
		}
		fv := Float(t.Data()[0])
		out.Point = &fv
	}

	if mom != nil {
		m, compressed, err := e.frameMoments(mo, ext, p.reduceMinMax, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) reduce: %w", i, out.Label, err)
		}
		if compressed {
			// A reduction takes Σx as n·mean and Σx² as ‖x‖₂², from the
			// values Ops.Mean and Ops.L2Norm answer, so a reduced answer
			// is bit-identical to one folded from those entry points.
			n := float64(m.N)
			mean, l2 := float64(m.Sum)/n, math.Sqrt(float64(m.SumSq))
			m.Sum, m.SumSq = Float(mean*n), Float(l2*l2)
		}
		*mom = m
	}
	return out, nil
}

// frameMoments reads one frame's moment state, with min and max when
// minMax is set. When the codec has Moments — and Extrema, for min and
// max — the state comes from compressed space: n, Σx and Σx² from one
// Moments walk, min and max from the block bounds. Otherwise, or when
// either answers ErrNotSupported, the frame decodes (through the LRU
// cache) and one pass accumulates everything. compressed reports which
// path ran. The capabilities are parameters, not closure captures, so
// runFrame's state stays on the stack.
func (e *Engine) frameMoments(mo codec.Moments, ext codec.Extrema, minMax bool,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (m Moments, compressed bool, err error) {
	if mo != nil && (ext != nil || !minMax) {
		c, err := loadC()
		if err != nil {
			return Moments{}, false, err
		}
		m, err := compressedMoments(mo, ext, c, minMax)
		if err == nil {
			return m, true, nil
		}
		if !errors.Is(err, codec.ErrNotSupported) {
			return Moments{}, false, err
		}
	}
	t, err := decode()
	if err != nil {
		return Moments{}, false, err
	}
	return decodedMoments(t, minMax), false, nil
}

// compressedMoments reads a frame's moment state without decompression.
// Extrema goes first when minMax is set: it refuses more frames than
// Moments does, and a refused frame then decodes without the walk.
func compressedMoments(mo codec.Moments, ext codec.Extrema, c codec.Compressed, minMax bool) (Moments, error) {
	m := EmptyMoments()
	if minMax {
		lo, hi, err := ext.Extrema(c)
		if err != nil {
			return Moments{}, err
		}
		m.Min, m.Max = Float(lo), Float(hi)
	}
	n, sum, sumSq, err := mo.Moments(c)
	if err != nil {
		return Moments{}, err
	}
	m.Frames, m.N, m.Sum, m.SumSq = 1, int64(n), Float(sum), Float(sumSq)
	return m, nil
}

// compressedValues derives one frame's aggregates from its compressed
// moment state by the formulas of core's Mean (Σx/n), Variance
// (Covariance(a, a): (Σx² − Σx·Σx/n)/n) and L2Norm (√Σx²), so each is
// bit-identical to that Ops entry point. stddev is derived here, not in
// the backend, so both paths share the same √max(var, 0) clamping.
func (m Moments) compressedValues(kinds []string) map[string]Float {
	n, sum, sumSq := float64(m.N), float64(m.Sum), float64(m.SumSq)
	variance := (sumSq - sum*sum/n) / n
	vals := make(map[string]Float, len(kinds))
	for _, kind := range kinds {
		switch kind {
		case AggMean:
			vals[kind] = Float(sum / n)
		case AggVariance:
			vals[kind] = Float(variance)
		case AggStdDev:
			vals[kind] = Float(math.Sqrt(math.Max(variance, 0)))
		case AggL2Norm:
			vals[kind] = Float(math.Sqrt(sumSq))
		case AggMin:
			vals[kind] = m.Min
		case AggMax:
			vals[kind] = m.Max
		}
	}
	return vals
}

// decodedMoments accumulates a frame's moment state in one pass over
// the decompressed data — the decode path of both aggregates and
// reductions. Each quantity is accumulated in the order and with the
// comparison of the Tensor method it replaces — Sum, Dot(t), Min, Max —
// so every answer is bit-identical to calling them, and min and max
// to what codec.Extrema returns, signed zeros and NaNs included.
// Extrema are tracked only when minMax is set, so both execution paths
// report the same untracked identity values.
func decodedMoments(t *tensor.Tensor, minMax bool) Moments {
	m := EmptyMoments()
	m.Frames = 1
	m.N = int64(t.Len())
	var sum, sumSq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range t.Data() {
		sum += v
		sumSq += v * v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m.Sum = Float(sum)
	m.SumSq = Float(sumSq)
	if minMax {
		m.Min = Float(lo)
		m.Max = Float(hi)
	}
	return m
}

// frameMetric computes one frame's metric against the shared reference:
// in compressed space when both frames share a spec whose codec has Ops
// — compressed arithmetic only composes within one compressed
// representation — else on the full decompressions (a cross-codec pair,
// a codec without Ops, or an Ops backend answering ErrNotSupported).
// decode clears the frame's compressed-space flag when the metric falls
// back; the reference's decompression is memoized, so one decode serves
// every frame task. The capabilities are parameters, not closure
// captures, so runFrame's state stays on the stack.
func (e *Engine) frameMetric(ctx context.Context, p *Plan, caps *frameCaps, ref *refFrame,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (float64, error) {
	if caps.ops != nil && caps.spec == ref.caps.spec {
		c, err := loadC()
		if err != nil {
			return 0, err
		}
		v, err := compressedMetric(caps.ops, c, ref.c, p.metric.Kind, p.metric.Peak)
		if !errors.Is(err, codec.ErrNotSupported) {
			return v, err
		}
	}
	t, err := decode()
	if err != nil {
		return 0, err
	}
	refT, err := ref.decoded(ctx, e, p.refIndex)
	if err != nil {
		return 0, err
	}
	return decodedMetric(t, refT, p.metric.Kind, p.metric.Peak)
}

// frameRegion reads one frame's region — a point is the region of unit
// shape at it — by partial decode when the codec has a RegionReader,
// else by cropping the full decompression.
func frameRegion(reg *RegionRequest, rr codec.RegionReader,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (*tensor.Tensor, error) {
	if rr != nil {
		c, err := loadC()
		if err != nil {
			return nil, err
		}
		t, err := rr.DecompressRegion(c, reg.Offset, reg.Shape)
		if err != nil {
			// The backend validated bounds against the frame shape.
			return nil, badf("%v", err)
		}
		return t, nil
	}
	full, err := decode()
	if err != nil {
		return nil, err
	}
	return cropRegion(full, reg.Offset, reg.Shape)
}

// decodedFrom returns frame i fully decompressed, through the LRU cache.
// Cached tensors are shared across queries and must not be mutated. fc
// is frame i's compressed representation when the caller already holds
// it: a frame that fell back mid-path (e.g. blaz answering
// ErrNotSupported after loadC) decompresses what it has instead of
// re-reading and re-decoding the payload. The cache-miss decode runs
// under the cache's singleflight, so a thundering herd of queries on one
// cold frame decompresses it once per generation — whichever caller wins
// the flight decodes (from its held compressed form if it has one), and
// the rest share that result.
func (e *Engine) decodedFrom(ctx context.Context, i int, fc codec.Compressed) (*tensor.Tensor, error) {
	ns, key := e.cacheKeyOf(i)
	return e.cache.Decode(ns, key, func() (*tensor.Tensor, error) {
		_, span := obs.DefaultTracer.Start(ctx, "frame.decode")
		span.SetDetail("frame=%d", i)
		defer span.End()
		caps, err := e.capsFor(i)
		if err != nil {
			return nil, err
		}
		c := fc
		if c == nil {
			if c, err = e.src.Frame(i); err != nil {
				return nil, err
			}
		}
		return caps.decompress(c)
	})
}

// decompress fully decompresses c under the caps' codec, recorded as
// one "decompress" operation under its spec.
func (c *frameCaps) decompress(fc codec.Compressed) (*tensor.Tensor, error) {
	start := time.Now()
	t, err := c.coder.Decompress(fc)
	if err == nil {
		codec.ObserveOp(c.spec, "decompress", t.Len()*8, time.Since(start))
	}
	return t, err
}

func compressedMetric(ops codec.Ops, a, b codec.Compressed, kind string, peak float64) (float64, error) {
	switch kind {
	case MetricMSE:
		return ops.MSE(a, b)
	case MetricPSNR:
		return ops.PSNR(a, b, peak)
	case MetricDot:
		return ops.Dot(a, b)
	case MetricCosine:
		return ops.CosineSimilarity(a, b)
	}
	return 0, fmt.Errorf("metric %q has no compressed-space entry point", kind)
}

// decodedMetric computes a pairwise metric on decompressed frames
// (population MSE, PSNR +Inf on identical frames).
func decodedMetric(a, b *tensor.Tensor, kind string, peak float64) (float64, error) {
	if !a.SameShape(b) {
		return 0, badf("metric frames have different shapes %v and %v", a.Shape(), b.Shape())
	}
	switch kind {
	case MetricMSE, MetricPSNR:
		mse := 0.0
		bd := b.Data()
		for i, v := range a.Data() {
			d := v - bd[i]
			mse += d * d
		}
		mse /= float64(a.Len())
		if kind == MetricMSE {
			return mse, nil
		}
		if mse == 0 {
			return math.Inf(1), nil
		}
		return 10 * math.Log10(peak*peak/mse), nil
	case MetricDot:
		return a.Dot(b), nil
	case MetricCosine:
		return a.Dot(b) / (a.Norm2() * b.Norm2()), nil
	}
	return 0, badf("unknown metric %q", kind)
}

// cropRegion extracts the region at offset with the given shape from a
// dense tensor — the region path's decode fallback.
func cropRegion(t *tensor.Tensor, offset, shape []int) (*tensor.Tensor, error) {
	d := t.Dims()
	if len(offset) != d || len(shape) != d {
		return nil, badf("region offset %v / shape %v must have %d dims", offset, shape, d)
	}
	for i := 0; i < d; i++ {
		if offset[i] < 0 || shape[i] <= 0 || offset[i]+shape[i] > t.Shape()[i] {
			return nil, badf("region offset %v shape %v out of bounds %v", offset, shape, t.Shape())
		}
	}
	out := tensor.New(shape...)
	idx := make([]int, d)
	src := make([]int, d)
	for {
		for i := range idx {
			src[i] = offset[i] + idx[i]
		}
		out.Data()[out.Offset(idx)] = t.Data()[t.Offset(src)]
		if !tensor.NextIndex(idx, shape) {
			break
		}
	}
	return out, nil
}
