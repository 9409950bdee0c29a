package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

// kernel answers requests by hand, calling the store, codec and core
// entry points the query engine would call, with a span around each.
// It mirrors the engine's choice of path — compressed space when the
// codec has the entry point, decode through an LRU of the same budget
// otherwise — so the level above it differs by the engine's own work
// and nothing else.
type kernel struct {
	src         frameSource
	cache       *query.Cache
	forceDecode bool
	pool        *frameSet // ingest_live only: src holds the pool, reads resolve Pick among it, ingests compress its frames

	mu   sync.Mutex
	caps map[string]*kernelCaps
}

type kernelCaps struct {
	coder  codec.Coder
	ops    codec.Ops
	rr     codec.RegionReader
	shaper codec.Shaper
}

func (k *kernel) capsFor(i int) (*kernelCaps, error) {
	spec := k.src.FrameSpec(i)
	k.mu.Lock()
	defer k.mu.Unlock()
	if c, ok := k.caps[spec]; ok {
		return c, nil
	}
	coder, err := k.src.FrameCoder(i)
	if err != nil {
		return nil, err
	}
	c := &kernelCaps{coder: coder}
	if !k.forceDecode {
		c.ops, _ = coder.(codec.Ops)
		c.rr, _ = coder.(codec.RegionReader)
		c.shaper, _ = coder.(codec.Shaper)
	}
	if k.caps == nil {
		k.caps = map[string]*kernelCaps{}
	}
	k.caps[spec] = c
	return c, nil
}

// caller records the kernel level's spans for one goroutine's share of
// a request. Spans collect in a buffer of the goroutine's own and reach
// the recorder in one flush, so two goroutines working side by side do
// not take turns on a lock around every call. serial says no other
// benchmark goroutine runs beside this one, so the process-wide
// allocation counter is its own.
type caller struct {
	rec    *recorder
	root   int
	req    int
	serial bool
	spans  *[]span
}

func newCaller(rec *recorder, root, req int) caller {
	return caller{rec: rec, root: root, req: req, serial: true, spans: new([]span)}
}

// fork is the caller for one task of a fan-out.
func (c caller) fork() caller {
	c.serial, c.spans = false, new([]span)
	return c
}

func (c caller) flush() {
	if c.rec != nil {
		c.rec.add(*c.spans)
	}
}

func (c caller) call(name string, fn func() error) error {
	if c.rec == nil {
		return fn()
	}
	var a0 int64
	if c.serial {
		a0 = heapAllocBytes()
	}
	s := span{Parent: c.root, Request: c.req, Level: "kernel", Name: name, Start: c.rec.now()}
	err := fn()
	s.End = c.rec.now()
	if c.serial {
		s.AllocBytes = heapAllocBytes() - a0
	}
	*c.spans = append(*c.spans, s)
	return err
}

// payloadBufs recycles payload scratch the way the engine's arena does,
// so the kernel's reads cost a copy, not an allocation.
var payloadBufs = sync.Pool{New: func() any { return new([]byte) }}

// load reads and bit-unpacks frame i.
func (k *kernel) load(c caller, i int) (codec.Compressed, *kernelCaps, error) {
	caps, err := k.capsFor(i)
	if err != nil {
		return nil, nil, err
	}
	bp := payloadBufs.Get().(*[]byte)
	defer payloadBufs.Put(bp)
	if err := c.call("store.payload_read", func() (err error) {
		*bp, err = k.src.PayloadAppend((*bp)[:0], i)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var comp codec.Compressed
	err = c.call("codec.decode", func() (err error) {
		comp, err = caps.coder.Decode(*bp) // Decode does not retain its input
		return err
	})
	return comp, caps, err
}

// decoded fully decompresses frame i through the LRU.
func (k *kernel) decoded(c caller, i int) error {
	ns, key := k.src.FrameKey(i)
	_, err := k.cache.Decode(ns, key, func() (*tensor.Tensor, error) {
		return k.decompress(c, i)
	})
	return err
}

func (k *kernel) decompress(c caller, i int) (*tensor.Tensor, error) {
	comp, caps, err := k.load(c, i)
	if err != nil {
		return nil, err
	}
	var t *tensor.Tensor
	err = c.call("codec.decompress", func() (err error) {
		t, err = caps.coder.Decompress(comp)
		return err
	})
	return t, err
}

// compressible mirrors the engine: min and max are not recoverable
// from transform coefficients.
func compressible(aggs []string) bool {
	for _, a := range aggs {
		if a == query.AggMin || a == query.AggMax {
			return false
		}
	}
	return true
}

func opAgg(c caller, ops codec.Ops, comp codec.Compressed, kind string) error {
	switch kind {
	case query.AggMean:
		return c.call("core.op_mean", func() error { _, err := ops.Mean(comp); return err })
	case query.AggVariance, query.AggStdDev:
		return c.call("core.op_variance", func() error { _, err := ops.Variance(comp); return err })
	case query.AggL2Norm:
		return c.call("core.op_l2norm", func() error { _, err := ops.L2Norm(comp); return err })
	}
	return fmt.Errorf("aggregate %q has no compressed-space kernel", kind)
}

func opMetric(c caller, ops codec.Ops, a, b codec.Compressed, kind string) error {
	switch kind {
	case query.MetricMSE:
		return c.call("core.op_mse", func() error { _, err := ops.MSE(a, b); return err })
	case query.MetricDot:
		return c.call("core.op_dot", func() error { _, err := ops.Dot(a, b); return err })
	case query.MetricCosine:
		return c.call("core.op_cosine", func() error { _, err := ops.CosineSimilarity(a, b); return err })
	}
	return fmt.Errorf("metric %q has no compressed-space kernel", kind)
}

func (k *kernel) exec(ctx context.Context) execFn {
	return func(rec *recorder, root int, r *request, seq int) error {
		c := newCaller(rec, root, r.ID)
		defer c.flush()
		if r.Class == classIngest {
			coder, err := lookupCoder(specLive)
			if err != nil {
				return err
			}
			// The store compresses a batch's frames side by side; so does
			// the kernel.
			frames := ingestFrames(k.pool, 2*seq, 2*seq+1)
			errs := make([]error, len(frames))
			if err := tensor.ParallelForCoarseCtx(ctx, len(frames), func(n int) {
				c := c.fork()
				defer c.flush()
				t := tensor.FromSlice(frames[n].Data, frames[n].Shape...)
				var comp codec.Compressed
				errs[n] = c.call("codec.compress", func() (err error) { comp, err = coder.Compress(t); return err })
				if errs[n] == nil {
					errs[n] = c.call("codec.encode", func() error { _, err := coder.Encode(comp); return err })
				}
			}); err != nil {
				return err
			}
			return errors.Join(errs...)
		}
		label := r.Label
		if k.pool != nil {
			label = int(r.Pick * float64(k.src.Len())) // the kernel's store holds the pool, one label per pool frame
		}
		var frames []int
		if r.Class == classFrame || r.Class == classPayload {
			i, ok := k.src.IndexOf(label)
			if !ok {
				return fmt.Errorf("no frame with label %d", label)
			}
			frames = []int{i}
		} else {
			// Resolving the selection is the query layer's compile step.
			var plan *query.Plan
			if err := c.call("query.compile", func() (err error) {
				plan, err = query.Compile(k.src, toQuery(r, label))
				return err
			}); err != nil {
				return err
			}
			frames = plan.Frames()
		}
		i := frames[0]
		switch r.Class {
		case classPayload:
			return c.call("store.payload_read", func() error { _, err := k.src.PayloadAppend(nil, i); return err })
		case classFrame:
			_, err := k.decompress(c, i) // Frame reads bypass the LRU in every backend
			return err
		case classQuery:
			caps, err := k.capsFor(i)
			if err != nil {
				return err
			}
			if caps.ops == nil || !compressible(r.Aggs) {
				return k.decoded(c, i)
			}
			comp, _, err := k.load(c, i)
			for _, kind := range r.Aggs {
				if err == nil {
					err = opAgg(c, caps.ops, comp, kind)
				}
			}
			return err
		case classRegion:
			caps, err := k.capsFor(i)
			if err != nil {
				return err
			}
			if caps.rr == nil {
				return k.decoded(c, i)
			}
			comp, _, err := k.load(c, i)
			if err != nil {
				return err
			}
			return c.call("codec.region", func() error { _, err := caps.rr.DecompressRegion(comp, r.Offset, r.Shape); return err })
		case classMetric:
			j, ok := k.src.IndexOf(r.Ref)
			if !ok {
				return fmt.Errorf("no frame with label %d", r.Ref)
			}
			ci, err := k.capsFor(i)
			if err != nil {
				return err
			}
			if ci.ops == nil || k.src.FrameSpec(i) != k.src.FrameSpec(j) {
				if err := k.decoded(c, j); err != nil {
					return err
				}
				return k.decoded(c, i)
			}
			ref, _, err := k.load(c, j)
			if err != nil {
				return err
			}
			comp, _, err := k.load(c, i)
			if err != nil {
				return err
			}
			return opMetric(c, ci.ops, comp, ref, r.Metric)
		case classReduce:
			// The engine fans a multi-frame selection out over the worker
			// pool; so does the kernel, or its wall time would not compare.
			minMax := !compressible(r.Aggs)
			if len(frames) == 1 {
				return k.moments(c, i, minMax)
			}
			errs := make([]error, len(frames))
			if err := tensor.ParallelForCoarseCtx(ctx, len(frames), func(n int) {
				c := c.fork()
				defer c.flush()
				errs[n] = k.moments(c, frames[n], minMax)
			}); err != nil {
				return err
			}
			return errors.Join(errs...)
		}
		return fmt.Errorf("unknown op class %q", r.Class)
	}
}

// moments is one frame's share of a reduction: Σx and Σx² from the
// compressed form when the codec can, a decode otherwise.
func (k *kernel) moments(c caller, i int, minMax bool) error {
	caps, err := k.capsFor(i)
	if err != nil {
		return err
	}
	if caps.ops == nil || caps.shaper == nil || minMax {
		return k.decoded(c, i)
	}
	comp, _, err := k.load(c, i)
	if err != nil {
		return err
	}
	if err := opAgg(c, caps.ops, comp, query.AggMean); err != nil {
		return err
	}
	return opAgg(c, caps.ops, comp, query.AggL2Norm)
}

// ---- level builders ----

// backendExec answers through the v1 contract and checks the answer
// against float64 on the raw frames, like the closed loop does.
func (t *tracer) backendExec(b api.Backend, live *liveState, labelBase int) execFn {
	orc := t.orc
	if live != nil {
		orc = newOracle(live.fs, live)
	}
	return func(rec *recorder, root int, r *request, seq int) error {
		a, err := execBackend(t.ctx, b, r, live, labelBase, seq)
		if err != nil {
			return err
		}
		_, err = orc.check(r, a)
		return err
	}
}

// engineExec answers straight from a query engine.
func (t *tracer) engineExec(ref *reference) execFn {
	return func(rec *recorder, root int, r *request, seq int) error {
		_, err := execReference(t.ctx, ref, r, r.Label)
		return err
	}
}

func analyticsLevels(t *tracer, opts query.Options) []level {
	path := filepath.Join(t.st.dataDir, gridFile)
	return []level{
		{name: "kernel", open: func() (execFn, func(), error) {
			r, err := store.OpenReaderMmap(path)
			if err != nil {
				return nil, nil, err
			}
			k := &kernel{src: r, cache: query.NewCache(0), forceDecode: opts.ForceDecode}
			return k.exec(t.ctx), func() { r.Close() }, nil
		}},
		{name: "engine", layer: layerConst("query"), open: func() (execFn, func(), error) {
			ref, err := openStoreRef(path, opts)
			if err != nil {
				return nil, nil, err
			}
			return t.engineExec(ref), ref.close, nil
		}},
		{name: "api", layer: layerConst("api"), open: func() (execFn, func(), error) {
			local, err := api.OpenLocal(path, opts)
			if err != nil {
				return nil, nil, err
			}
			return t.backendExec(local, nil, 0), func() { local.Close() }, nil
		}},
	}
}

func serveMixedLevels(t *tracer) []level {
	manifest := filepath.Join(t.st.dataDir, volManifest)
	cached := query.Options{CacheBytes: t.e.sz.cacheBytes}
	return []level{
		{name: "kernel", open: func() (execFn, func(), error) {
			ds, err := shard.Open(manifest, query.Options{})
			if err != nil {
				return nil, nil, err
			}
			k := &kernel{src: ds, cache: query.NewCache(t.e.sz.cacheBytes)}
			return k.exec(t.ctx), func() { ds.Close() }, nil
		}},
		{name: "engine", layer: layerConst("query"), open: func() (execFn, func(), error) {
			ref, err := openDatasetRef(manifest, cached)
			if err != nil {
				return nil, nil, err
			}
			return t.engineExec(ref), ref.close, nil
		}},
		{name: "shard", layer: layerConst("shard"), open: func() (execFn, func(), error) {
			ds, err := shard.Open(manifest, cached)
			if err != nil {
				return nil, nil, err
			}
			ref := &reference{src: ds}
			return func(rec *recorder, root int, r *request, seq int) error {
				if r.Class == classFrame || r.Class == classPayload {
					_, err := execReference(t.ctx, ref, r, r.Label)
					return err
				}
				_, err := ds.Query(t.ctx, toQuery(r, r.Label))
				return err
			}, func() { ds.Close() }, nil
		}},
		{name: "api", layer: layerConst("api"), open: func() (execFn, func(), error) {
			sharded, err := api.OpenSharded(manifest, cached)
			if err != nil {
				return nil, nil, err
			}
			return t.backendExec(limited(sharded), nil, 0), func() { sharded.Close() }, nil
		}},
		{name: "http", layer: layerConst("httpapi"), open: func() (execFn, func(), error) {
			st, err := buildServeMixedOver(t.e, t.st.fs, manifest)
			if err != nil {
				return nil, nil, err
			}
			return t.backendExec(st.backend, nil, 0), st.close, nil
		}},
	}
}

func clusterLevels(t *tracer) []level {
	all := filepath.Join(t.e.dir, tilesAllFile)
	cached := query.Options{CacheBytes: t.e.sz.shardCacheBytes}
	packAll := func() error {
		if _, err := os.Stat(all); err == nil {
			return nil
		}
		return packStore(all, t.st.fs, 0, len(t.st.fs.raw))
	}
	return []level{
		{name: "kernel", open: func() (execFn, func(), error) {
			if err := packAll(); err != nil {
				return nil, nil, err
			}
			r, err := store.OpenReaderMmap(all)
			if err != nil {
				return nil, nil, err
			}
			k := &kernel{src: r, cache: query.NewCache(t.e.sz.shardCacheBytes)}
			return k.exec(t.ctx), func() { r.Close() }, nil
		}},
		{name: "engine", layer: layerConst("query"), open: func() (execFn, func(), error) {
			ref, err := openStoreRef(all, cached)
			if err != nil {
				return nil, nil, err
			}
			return t.engineExec(ref), ref.close, nil
		}},
		{name: "api", layer: layerConst("api"), open: func() (execFn, func(), error) {
			local, err := api.OpenLocal(all, cached)
			if err != nil {
				return nil, nil, err
			}
			return t.backendExec(local, nil, 0), func() { local.Close() }, nil
		}},
		// One server holding every frame: what the coordinator's answer
		// costs without the cluster hop.
		{name: "http", layer: layerConst("httpapi"), open: func() (execFn, func(), error) {
			st := &stack{}
			local, err := api.OpenLocal(all, cached)
			if err != nil {
				return nil, nil, err
			}
			st.onClose(func() { local.Close() })
			url, err := st.serve(handlerFor(local))
			if err != nil {
				st.close()
				return nil, nil, err
			}
			cl, err := newClient(t.e, url)
			if err != nil {
				st.close()
				return nil, nil, err
			}
			return t.backendExec(cl, nil, 0), st.close, nil
		}},
		{name: "cluster", layer: layerConst("cluster"), open: func() (execFn, func(), error) {
			st, err := buildClusterOver(t.e, t.st.fs, t.st.dataDir)
			if err != nil {
				return nil, nil, err
			}
			return t.backendExec(st.backend, nil, 0), st.close, nil
		}},
	}
}

func ingestLevels(t *tracer) []level {
	fs := t.st.fs
	// A read on an ingest.Store runs the engine and api.Local behind a
	// pinned view; a write runs the pipeline, the WAL and the commit.
	// The store level's self time goes to the layer that did the work.
	storeLayer := func(class string) string {
		if class == classIngest {
			return "ingest"
		}
		return "query"
	}
	opened := 0
	fresh := func() (*stack, error) {
		opened++
		e := &env{sz: t.e.sz, dir: filepath.Join(t.e.dir, fmt.Sprintf("trace-store%d", opened)), hc: t.e.hc}
		return buildIngest(e, fs)
	}
	return []level{
		{name: "kernel", open: func() (execFn, func(), error) {
			// The pool packed as a plain store: the same payload bytes
			// an ingested frame has, readable without a live store.
			path := filepath.Join(t.e.dir, "live-pool.gbz")
			if err := packStore(path, fs, 0, len(fs.raw)); err != nil {
				return nil, nil, err
			}
			r, err := store.OpenReaderMmap(path)
			if err != nil {
				return nil, nil, err
			}
			k := &kernel{src: r, cache: query.NewCache(0), pool: fs}
			return k.exec(t.ctx), func() { r.Close() }, nil
		}},
		{name: "store", layer: storeLayer, open: func() (execFn, func(), error) {
			st, err := fresh()
			if err != nil {
				return nil, nil, err
			}
			return t.backendExec(st.store, st.live, traceLabelBase), st.close, nil
		}},
		{name: "http", layer: layerConst("httpapi"), open: func() (execFn, func(), error) {
			st, err := fresh()
			if err != nil {
				return nil, nil, err
			}
			return t.backendExec(st.backend, st.live, traceLabelBase), st.close, nil
		}},
	}
}

// ingestLifecycle times the ingest store's commit, compaction and
// reopen by calling them directly on a store of its own.
func (t *tracer) ingestLifecycle(put func(name string, v float64, unit string)) error {
	put("ingest.commit_ms", 0, "ms")
	put("ingest.compact_ms", 0, "ms")
	put("ingest.reopen_ms", 0, "ms")
	if t.st.live == nil {
		return nil
	}
	fs, sz := t.st.fs, t.e.sz
	dir := filepath.Join(t.e.dir, "trace-lifecycle")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, liveFile)
	opts := ingest.Options{Spec: specLive} // every trigger off: the calls below are the only commits
	is, err := ingest.Create(path, opts)
	if err != nil {
		return err
	}
	defer func() { is.Close() }()
	ms := func(fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		return float64(time.Since(start)) / 1e6, err
	}
	var commits []float64
	label := 0
	for round := 0; round < 3; round++ {
		for k := 0; k < sz.commitFrames; k, label = k+2, label+2 {
			if _, err := is.Ingest(t.ctx, ingestFrames(fs, label, label+1)); err != nil {
				return err
			}
		}
		d, err := ms(func() error { return is.Commit(t.ctx) })
		if err != nil {
			return err
		}
		commits = append(commits, d)
	}
	put("ingest.commit_ms", mean(commits), "ms")
	d, err := ms(is.Compact)
	if err != nil {
		return err
	}
	put("ingest.compact_ms", d, "ms")
	if err := is.Close(); err != nil {
		return err
	}
	d, err = ms(func() (err error) { is, err = ingest.Open(path, opts); return err })
	if err != nil {
		return err
	}
	put("ingest.reopen_ms", d, "ms")
	return nil
}
