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
	keyer       FrameKeyer   // nil when src has no stable frame identity
	speccer     FrameSpeccer // nil when src is codec-uniform by contract
	specs       []string     // every spec src uses when more than one, else nil
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
// ext, rr, and shaper are nil when the codec lacks the interface or the
// engine forces decode.
type frameCaps struct {
	spec   string
	coder  codec.Coder
	ops    codec.Ops
	ext    codec.Extrema
	rr     codec.RegionReader
	shaper codec.Shaper
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
	speccer, _ := src.(FrameSpeccer)
	var specs []string
	if speccer != nil {
		if specs = speccer.Specs(); len(specs) < 2 {
			specs = nil
		}
	}
	return &Engine{
		src:         src,
		keyer:       keyer,
		speccer:     speccer,
		specs:       specs,
		cache:       cache,
		ns:          engineNS.Add(1),
		forceDecode: opts.ForceDecode,
		capsBySpec:  make(map[string]*frameCaps),
	}
}

// capsFor resolves the execution capabilities of frame i's codec,
// memoized per spec. For a speccer-less source every frame resolves to
// the default spec.
func (e *Engine) capsFor(i int) (*frameCaps, error) {
	spec := e.src.Spec()
	if e.speccer != nil {
		spec = e.speccer.FrameSpec(i)
	}
	e.capsMu.Lock()
	defer e.capsMu.Unlock()
	if c, ok := e.capsBySpec[spec]; ok {
		return c, nil
	}
	var coder codec.Coder
	var err error
	if e.speccer != nil {
		coder, err = e.speccer.FrameCoder(i)
	} else {
		coder, err = e.src.Coder()
	}
	if err != nil {
		return nil, err
	}
	c := &frameCaps{spec: spec, coder: coder}
	if !e.forceDecode {
		c.ops, _ = coder.(codec.Ops)
		c.ext, _ = coder.(codec.Extrema)
		c.rr, _ = coder.(codec.RegionReader)
		c.shaper, _ = coder.(codec.Shaper)
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

// loadFrame reads and decodes frame i's compressed representation.
func (e *Engine) loadFrame(i int) (codec.Compressed, error) {
	return e.src.Frame(i)
}

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

	// The reference frame of a vs-reference metric is shared by every
	// frame task, so it is materialized at most once per Execute: the
	// compressed form eagerly when its codec has Ops, and the full
	// decompression lazily and memoized — one decode serves all N
	// frame tasks even with the cache disabled, and a purely
	// compressed-space query never triggers it at all.
	var ref *refFrame
	if p.metric != nil && !p.pairMode {
		refCaps, err := e.capsFor(p.refIndex)
		if err != nil {
			return nil, err
		}
		ref = &refFrame{caps: refCaps}
		if refCaps.ops != nil {
			if ref.c, err = e.loadFrame(p.refIndex); err != nil {
				return nil, err
			}
		}
		var once sync.Once
		var t *tensor.Tensor
		var terr error
		ref.decoded = func() (*tensor.Tensor, error) {
			once.Do(func() { t, terr = e.decoded(ctx, p.refIndex) })
			return t, terr
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

	res := &Result{Spec: e.src.Spec(), Specs: e.specs, Frames: frames, ExecutedInCompressedSpace: true}
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
	if p.pairMode {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pair, err := e.runPair(ctx, p)
		if err != nil {
			return nil, err
		}
		res.Pair = pair
		if !pair.ExecutedInCompressedSpace {
			// The fallback fully decompressed both selected frames, so
			// their per-frame flags must agree with the contract.
			frames[0].ExecutedInCompressedSpace = false
			frames[1].ExecutedInCompressedSpace = false
		}
		res.ExecutedInCompressedSpace = res.ExecutedInCompressedSpace && pair.ExecutedInCompressedSpace
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

// refFrame is the shared reference frame of a vs-reference metric: its
// capabilities, its compressed form (loaded iff its codec has Ops), and
// its memoized full decompression.
type refFrame struct {
	caps    *frameCaps
	c       codec.Compressed
	decoded func() (*tensor.Tensor, error)
}

func (r *refFrame) load() (codec.Compressed, error) { return r.c, nil }

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
	if caps.spec != e.src.Spec() {
		out.Spec = caps.spec
	}
	ops, ext, rr, shaper := caps.ops, caps.ext, caps.rr, caps.shaper

	var fc codec.Compressed
	loadC := func() (codec.Compressed, error) {
		if fc == nil {
			var err error
			if fc, err = e.loadFrame(i); err != nil {
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
		vals, err := e.frameAggs(p, ops, ext, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) aggregates: %w", i, out.Label, err)
		}
		out.Aggregates = vals
	}

	if p.metric != nil && !p.pairMode {
		v, err := e.frameMetric(p, caps, ref, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) %s vs label %d: %w",
				i, out.Label, p.metric.Kind, e.src.Info(p.refIndex).Label, err)
		}
		fv := Float(v)
		out.Metric = &fv
	}

	if p.region != nil {
		region, err := e.frameRegion(p, rr, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) region: %w", i, out.Label, err)
		}
		out.Region = region
	}

	if len(p.point) > 0 {
		v, err := e.framePoint(p, rr, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) point: %w", i, out.Label, err)
		}
		fv := Float(v)
		out.Point = &fv
	}

	if mom != nil {
		m, err := e.frameMoments(p, ops, ext, shaper, loadC, decode)
		if err != nil {
			return out, fmt.Errorf("frame %d (label %d) reduce: %w", i, out.Label, err)
		}
		*mom = m
	}
	return out, nil
}

// frameMoments computes one frame's share of a dataset-level reduction.
// When the codec exposes the moment entry points (Ops), the compressed
// shape (Shaper) and, if the reduction asks for extrema, Extrema, the
// partial state comes straight from compressed space: Σx = n·mean,
// Σx² = ‖x‖₂², min and max from the block bounds. Otherwise, or when
// the backend answers ErrNotSupported, the frame decodes (through the
// LRU cache) and one pass accumulates everything. ext is a parameter, not
// a closure capture, so runFrame's state stays on the stack.
func (e *Engine) frameMoments(p *Plan, ops codec.Ops, ext codec.Extrema, shaper codec.Shaper,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (Moments, error) {
	if ops != nil && shaper != nil && (ext != nil || !p.reduceMinMax) {
		c, err := loadC()
		if err != nil {
			return Moments{}, err
		}
		m, err := compressedMoments(ops, ext, shaper, c, p.reduceMinMax)
		if err == nil {
			return m, nil
		}
		if !errors.Is(err, codec.ErrNotSupported) {
			return Moments{}, err
		}
	}
	t, err := decode()
	if err != nil {
		return Moments{}, err
	}
	return decodedMoments(t, p.reduceMinMax), nil
}

// compressedMoments derives a frame's moment state from the Ops entry
// points, and its extrema from Extrema when minMax is set, without
// decompression.
func compressedMoments(ops codec.Ops, ext codec.Extrema, shaper codec.Shaper, c codec.Compressed, minMax bool) (Moments, error) {
	m := EmptyMoments()
	if minMax {
		// First: it is the entry point that may answer ErrNotSupported.
		lo, hi, err := ext.Extrema(c)
		if err != nil {
			return Moments{}, err
		}
		m.Min, m.Max = Float(lo), Float(hi)
	}
	shape, err := shaper.Shape(c)
	if err != nil {
		return Moments{}, err
	}
	n := 1
	for _, e := range shape {
		n *= e
	}
	mean, err := ops.Mean(c)
	if err != nil {
		return Moments{}, err
	}
	l2, err := ops.L2Norm(c)
	if err != nil {
		return Moments{}, err
	}
	m.Frames = 1
	m.N = int64(n)
	m.Sum = Float(mean * float64(n))
	m.SumSq = Float(l2 * l2)
	return m, nil
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

// frameAggs computes the requested aggregates in compressed space when
// the frame's codec has an entry point for every kind — Ops for the
// moments, Extrema for min and max — and serves them all, else
// decode-then-compute. ext is a parameter for the reason frameMoments'
// is.
func (e *Engine) frameAggs(p *Plan, ops codec.Ops, ext codec.Extrema,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (map[string]Float, error) {
	if ops != nil && (ext != nil || !p.aggsMinMax) {
		c, err := loadC()
		if err != nil {
			return nil, err
		}
		vals, err := compressedAggs(ops, ext, c, p.aggs, p.aggsMinMax)
		if err == nil {
			return vals, nil
		}
		if !errors.Is(err, codec.ErrNotSupported) {
			return nil, err
		}
	}
	t, err := decode()
	if err != nil {
		return nil, err
	}
	return decodedMoments(t, p.aggsMinMax).values(p.aggs)
}

// frameMetric computes one frame's metric against the shared reference;
// decode clears the frame's compressed-space flag when the metric falls
// back. The reference's decompression is memoized: one decode serves
// every frame task.
func (e *Engine) frameMetric(p *Plan, caps *frameCaps, ref *refFrame,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (float64, error) {
	v, _, err := metricOf(p.metric.Kind, p.metric.Peak, caps, ref.caps,
		metricSide{load: loadC, decode: decode}, metricSide{load: ref.load, decode: ref.decoded})
	return v, err
}

// metricSide is how to get one frame of a metric evaluation: its
// compressed form, and its full decompression. It holds no capabilities:
// escape analysis does not tell struct fields apart, so codec.Ops beside
// the closures would move every frame task's captured state to the heap.
type metricSide struct {
	load   func() (codec.Compressed, error)
	decode func() (*tensor.Tensor, error)
}

// metricOf evaluates a pairwise metric by the one rule every executor
// shares: in compressed space when both frames share a spec whose codec
// has Ops — compressed arithmetic only composes within one compressed
// representation — else on the full decompressions (a cross-codec pair,
// a codec without Ops, or an Ops backend answering ErrNotSupported).
// compressed reports which path ran.
func metricOf(kind string, peak float64, capsA, capsB *frameCaps, a, b metricSide) (v float64, compressed bool, err error) {
	if capsA.ops != nil && capsA.spec == capsB.spec {
		ca, err := a.load()
		if err != nil {
			return 0, false, err
		}
		cb, err := b.load()
		if err != nil {
			return 0, false, err
		}
		v, err := compressedMetric(capsA.ops, ca, cb, kind, peak)
		if err == nil {
			return v, true, nil
		}
		if !errors.Is(err, codec.ErrNotSupported) {
			return 0, false, err
		}
	}
	ta, err := a.decode()
	if err != nil {
		return 0, false, err
	}
	tb, err := b.decode()
	if err != nil {
		return 0, false, err
	}
	v, err = decodedMetric(ta, tb, kind, peak)
	return v, false, err
}

// PairMetric computes a pairwise metric between two frames held in
// their compressed representation, each under the spec and coder that
// wrote it, exactly as an Engine over one store would: in compressed
// space when both share a spec whose codec has Ops, else by fully
// decompressing both. compressed reports which path ran; peak ≤ 0
// means 1. It is for executors that hold decoded payloads from
// elsewhere — the cluster coordinator evaluates cross-shard metrics
// with it, so a distributed answer is bit-identical to a local one.
func PairMetric(kind string, peak float64, a, b codec.Compressed, specA, specB string, coderA, coderB codec.Coder) (v float64, compressed bool, err error) {
	if peak <= 0 {
		peak = 1
	}
	capsA, capsB := heldCaps(specA, coderA), heldCaps(specB, coderB)
	return metricOf(kind, peak, capsA, capsB, capsA.held(a), capsB.held(b))
}

func heldCaps(spec string, coder codec.Coder) *frameCaps {
	ops, _ := coder.(codec.Ops)
	return &frameCaps{spec: spec, coder: coder, ops: ops}
}

// held is a metric side over a compressed form the caller already
// holds; its decompression runs uncached.
func (c *frameCaps) held(fc codec.Compressed) metricSide {
	return metricSide{
		load:   func() (codec.Compressed, error) { return fc, nil },
		decode: func() (*tensor.Tensor, error) { return c.decompress(fc) },
	}
}

func (e *Engine) frameRegion(p *Plan, rr codec.RegionReader,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (*RegionResult, error) {
	reg := p.region
	var t *tensor.Tensor
	if rr != nil {
		c, err := loadC()
		if err != nil {
			return nil, err
		}
		if t, err = rr.DecompressRegion(c, reg.Offset, reg.Shape); err != nil {
			// The backend validated bounds against the frame shape.
			return nil, badf("%v", err)
		}
	} else {
		full, err := decode()
		if err != nil {
			return nil, err
		}
		if t, err = cropRegion(full, reg.Offset, reg.Shape); err != nil {
			return nil, err
		}
	}
	return &RegionResult{Offset: reg.Offset, Shape: reg.Shape, Values: t.Data()}, nil
}

func (e *Engine) framePoint(p *Plan, rr codec.RegionReader,
	loadC func() (codec.Compressed, error), decode func() (*tensor.Tensor, error)) (float64, error) {
	if rr != nil {
		c, err := loadC()
		if err != nil {
			return 0, err
		}
		v, err := rr.At(c, p.point...)
		if err != nil {
			return 0, badf("%v", err)
		}
		return v, nil
	}
	t, err := decode()
	if err != nil {
		return 0, err
	}
	one := make([]int, len(p.point))
	for i := range one {
		one[i] = 1
	}
	region, err := cropRegion(t, p.point, one)
	if err != nil {
		return 0, err
	}
	return region.Data()[0], nil
}

// runPair computes the two-frame metric of a pairwise request. It
// loads the two frames itself rather than threading handles out of the
// fan-out; a request that combines a pair metric with aggregates or
// region work decodes those two payloads twice, a bounded duplication
// (pair mode is always exactly two frames) taken for the simpler
// frame-task lifecycle.
func (e *Engine) runPair(ctx context.Context, p *Plan) (*PairResult, error) {
	ia, ib := p.frames[0], p.frames[1]
	capsA, err := e.capsFor(ia)
	if err != nil {
		return nil, err
	}
	capsB, err := e.capsFor(ib)
	if err != nil {
		return nil, err
	}
	v, compressed, err := metricOf(p.metric.Kind, p.metric.Peak, capsA, capsB,
		e.pairSide(ctx, ia), e.pairSide(ctx, ib))
	if err != nil {
		return nil, err
	}
	return &PairResult{
		A: e.src.Info(ia).Label, B: e.src.Info(ib).Label,
		Kind: p.metric.Kind, Value: Float(v), ExecutedInCompressedSpace: compressed,
	}, nil
}

// pairSide is frame i as one side of a pairwise metric: a fallback
// decompresses, through the cache, the compressed form the
// compressed-space attempt already read, if it read one.
func (e *Engine) pairSide(ctx context.Context, i int) metricSide {
	var fc codec.Compressed
	return metricSide{
		load: func() (codec.Compressed, error) {
			var err error
			fc, err = e.loadFrame(i)
			return fc, err
		},
		decode: func() (*tensor.Tensor, error) { return e.decodedFrom(ctx, i, fc) },
	}
}

// decoded returns frame i fully decompressed, through the LRU cache.
// Cached tensors are shared across queries and must not be mutated.
func (e *Engine) decoded(ctx context.Context, i int) (*tensor.Tensor, error) {
	return e.decodedFrom(ctx, i, nil)
}

// decodedFrom is decoded for callers that may already hold frame i's
// compressed representation: a frame that fell back mid-path (e.g. blaz
// answering ErrNotSupported after loadC) decompresses what it has
// instead of re-reading and re-decoding the payload. The cache-miss
// decode runs under the cache's singleflight, so a thundering herd of
// queries on one cold frame decompresses it once per generation —
// whichever caller wins the flight decodes (from its held compressed
// form if it has one), and the rest share that result.
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
			if c, err = e.loadFrame(i); err != nil {
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

// compressedAggs answers every kind in compressed space: min and max
// from one Extrema call (made first, when minMax is set, since it is the
// entry point that may answer ErrNotSupported), the rest from Ops.
func compressedAggs(ops codec.Ops, ext codec.Extrema, c codec.Compressed, kinds []string, minMax bool) (map[string]Float, error) {
	var lo, hi float64
	if minMax {
		var err error
		if lo, hi, err = ext.Extrema(c); err != nil {
			return nil, err
		}
	}
	vals := make(map[string]Float, len(kinds))
	for _, kind := range kinds {
		var v float64
		var err error
		switch kind {
		case AggMin:
			v = lo
		case AggMax:
			v = hi
		default:
			v, err = compressedAgg(ops, c, kind)
		}
		if err != nil {
			return nil, err
		}
		vals[kind] = Float(v)
	}
	return vals, nil
}

// compressedAgg dispatches one moment aggregate to its Ops entry point.
// stddev is derived from Variance here — not in the backend — so both
// execution paths share the same sqrt(max(var, 0)) clamping.
func compressedAgg(ops codec.Ops, c codec.Compressed, kind string) (float64, error) {
	switch kind {
	case AggMean:
		return ops.Mean(c)
	case AggVariance:
		return ops.Variance(c)
	case AggStdDev:
		v, err := ops.Variance(c)
		if err != nil {
			return 0, err
		}
		return math.Sqrt(math.Max(v, 0)), nil
	case AggL2Norm:
		return ops.L2Norm(c)
	}
	return 0, fmt.Errorf("aggregate %q has no compressed-space entry point", kind)
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
