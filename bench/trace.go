package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// traceLoopShare is the share of -seconds the traced run spends in its
// closed loop (the source of the count metrics); the rest of its time
// goes to the layer-peeled replays.
const traceLoopShare = 0.3

// span is one recorded call: the benchmark's own record, taken around
// its calls into a layer. Times are nanoseconds since the recorder
// started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root span
	Request int    `json:"request"`
	Level   string `json:"level"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// AllocBytes is the heap allocated during the span, recorded only
	// for spans that ran with no other benchmark goroutine beside them.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out, if asked for,
// when the benchmark ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(level, name string, parent, request int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Level: level, Name: name,
		Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	now := r.now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add appends finished spans, giving them their ids.
func (r *recorder) add(spans []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		s.ID = len(r.spans)
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) writeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// covered returns how much of [start, end) the given intervals cover:
// the length of their union, clipped to the parent.
func covered(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c[0], c[1]
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, reach int64
	reach = start
	for _, c := range iv {
		if c[1] <= reach {
			continue
		}
		if c[0] > reach {
			reach = c[0]
		}
		total += c[1] - reach
		reach = c[1]
	}
	return total
}

// selfTimes maps every span to its duration minus the part of that
// interval its direct children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// level is one layer boundary of the traced run: a way to answer a
// request by calling into the stack at that height.
type level struct {
	name string
	// layer names the layer whose self time this level adds over the
	// one below it, by op class.
	layer func(class string) string
	// open builds a fresh stack for the level, so cache state evolves
	// the same way in every level's replay.
	open func() (execFn, func(), error)
}

// execFn answers request r (the seq-th of the replay) at some level,
// recording child spans under root when the level has any to record.
type execFn func(rec *recorder, root int, r *request, seq int) error

func layerConst(name string) func(string) string { return func(string) string { return name } }

// tracer runs the layer-peeled replays of one workload.
type tracer struct {
	w     *workload
	st    *stack
	e     *env
	o     runOptions
	ctx   context.Context
	list  []request
	orc   *oracle
	fails failureLog

	frameShares map[string]float64 // set by countMetrics
}

// replay answers the first n requests serially, each one at every level
// in turn. Every level has a stack of its own, opened
// fresh, so each sees the same request sequence from a cold start and
// its caches evolve identically; taking the levels in turn on each
// request keeps the durations being subtracted close together in time,
// so machine drift does not pass for a layer's self time. The top level
// runs once more per request on a further stack with no recorder: the
// untraced baseline of the overhead figure.
func (t *tracer) replay(levels []level, n int, rec *recorder) (mallocs map[string]float64, untraced time.Duration, err error) {
	open := append(append([]level(nil), levels...), levels[len(levels)-1])
	execs := make([]execFn, len(open))
	for i, lv := range open {
		exec, closeFn, err := lv.open()
		if err != nil {
			return nil, 0, fmt.Errorf("level %s: %w", lv.name, err)
		}
		defer closeFn()
		execs[i] = exec
	}
	mallocs = map[string]float64{}
	runtime.GC()
	for k := 0; k < n; k++ {
		r := &t.list[k]
		for step := range open {
			// Whichever level answers a request first finds its payload
			// cold in the CPU's caches and warms it for the rest; taking
			// the levels bottom-up and top-down on alternate requests
			// spreads that cost evenly instead of booking it to one end.
			i := step
			if k%2 == 1 {
				i = len(open) - 1 - step
			}
			lv := open[i]
			var err error
			if i == len(levels) {
				start := time.Now()
				err = execs[i](nil, -1, r, k)
				untraced += time.Since(start)
			} else {
				objs := heapAllocObjects()
				root := rec.begin(lv.name, "level."+lv.name, -1, r.ID)
				err = execs[i](rec, root, r, k)
				rec.end(root)
				mallocs[lv.name] += float64(heapAllocObjects() - objs)
			}
			if err != nil {
				t.fails.add("traced %s level, op %d (%s): %v", lv.name, k, r.Class, err)
			}
		}
	}
	return mallocs, untraced, nil
}

// peel replays the request prefix at every level and turns the spans
// into per-layer times.
func (t *tracer) peel(res *workloadResult) error {
	levels := t.w.levels(t)
	n := int(float64(t.w.traceN) * t.o.scale)
	if n < 1 {
		n = 1
	}
	if n > len(t.list) {
		n = len(t.list)
	}
	rec := t.o.spans
	if rec == nil {
		rec = newRecorder()
	}
	first := len(rec.spans)
	mallocs, untraced, err := t.replay(levels, n, rec)
	if err != nil {
		return err
	}
	top := levels[len(levels)-1]
	spans := rec.spans[first:]

	// Per request and level: the root span's duration, and for the
	// kernel level how much of it the calls into store, codec, core (and
	// the query layer's compile step) cover and how that cover splits
	// between them.
	type reqLevel struct {
		dur, cover int64
		byLayer    map[string]int64 // summed child durations by layer
	}
	at := map[string]map[int]*reqLevel{}
	self0 := selfTimes(spans)
	perCall := map[string][]float64{} // span name → durations in ms
	allocs := map[string][]float64{}  // span name → alloc bytes of serial spans
	for _, s := range spans {
		if s.Parent < 0 {
			if at[s.Level] == nil {
				at[s.Level] = map[int]*reqLevel{}
			}
			at[s.Level][s.Request] = &reqLevel{dur: s.dur(), cover: s.dur() - self0[s.ID], byLayer: map[string]int64{}}
		}
	}
	for _, c := range spans {
		if c.Parent < 0 {
			continue
		}
		perCall[c.Name] = append(perCall[c.Name], float64(c.dur())/1e6)
		if c.AllocBytes > 0 {
			allocs[c.Name] = append(allocs[c.Name], float64(c.AllocBytes))
		}
		layer := c.Name[:strings.IndexByte(c.Name, '.')]
		at[c.Level][c.Request].byLayer[layer] += c.dur()
	}

	// Peel: a level's self time on a request is its duration minus the
	// level below; the kernel level's covered time splits between
	// store, codec and core in proportion to their summed durations.
	self := map[string]float64{}        // layer → ms over the replay
	selfByClass := map[string]float64{} // "layer/class" → ms
	classCount := map[string]int{}      // class → requests replayed
	for k := 0; k < n; k++ {
		r := &t.list[k]
		classCount[r.Class]++
		var below int64
		for li, lv := range levels {
			rl := at[lv.name][r.ID]
			if rl == nil {
				return fmt.Errorf("no %s-level span for request %d", lv.name, r.ID)
			}
			if li == 0 {
				var sum int64
				for _, d := range rl.byLayer {
					sum += d
				}
				for layer, d := range rl.byLayer {
					self[layer] += float64(rl.cover) * ratio(float64(d), float64(sum)) / 1e6
				}
				self["bench"] += float64(rl.dur-rl.cover) / 1e6
				below = rl.cover
				continue
			}
			layer := lv.layer(r.Class)
			ms := float64(rl.dur-below) / 1e6
			self[layer] += ms
			selfByClass[layer+"/"+r.Class] += ms
			below = rl.dur
		}
	}
	var topTotal float64
	for _, rl := range at[top.name] {
		topTotal += float64(rl.dur) / 1e6
	}
	// The kernel level's own glue is the benchmark's, not the system's:
	// it is reported but left out of the shares' base.
	res.Shares = map[string]float64{}
	for layer, ms := range self {
		if layer != "bench" {
			res.Shares[layer] = ratio(ms, topTotal)
		}
	}

	put := func(name string, v float64, unit string) { res.PerLayer[name] = metric{v, unit} }
	perReq := func(layer string) float64 { return self[layer] / float64(n) }
	put("store.payload_read_ms", mean(perCall["store.payload_read"]), "ms")
	for _, op := range []string{"decode", "decompress", "region", "compress", "encode"} {
		put("codec."+op+"_ms", mean(perCall["codec."+op]), "ms")
	}
	put("codec.decode_alloc_bytes", mean(allocs["codec.decode"]), "B")
	var opAllocs []float64
	for _, op := range coreOps {
		put("core.op_"+op+"_ms", mean(perCall["core.op_"+op]), "ms")
		opAllocs = append(opAllocs, allocs["core.op_"+op]...)
	}
	put("core.op_alloc_bytes", mean(opAllocs), "B")
	put("query.self_ms", perReq("query"), "ms")
	put("query.compile_us", mean(perCall["query.compile"])*1e3, "us")
	put("api.self_ms", perReq("api"), "ms")
	put("httpapi.self_ms", perReq("httpapi"), "ms")
	put("httpapi.allocs_per_op", 0, "count")
	for li, lv := range levels {
		if li > 0 && lv.layer(classQuery) == "httpapi" {
			put("httpapi.allocs_per_op", (mallocs[lv.name]-mallocs[levels[li-1].name])/float64(n), "count")
		}
	}
	put("shard.scatter_self_ms", perReq("shard"), "ms")
	put("cluster.hop_self_ms", perReq("cluster"), "ms")
	put("ingest.batch_self_ms", ratio(selfByClass["ingest/"+classIngest], float64(classCount[classIngest])), "ms")
	put("bench.trace_overhead_share", ratio(topTotal, float64(untraced)/1e6)-1, "ratio")
	return t.ingestLifecycle(put)
}

// coreOps are the compressed-space kernels the traced run times by
// name.
var coreOps = []string{"mean", "variance", "l2norm", "dot", "mse", "cosine"}

// heapAllocBytes and heapAllocObjects read the cumulative heap
// allocation counters without stopping the world.
func heapAllocBytes() int64    { return readHeapCounter("/gc/heap/allocs:bytes") }
func heapAllocObjects() uint64 { return uint64(readHeapCounter("/gc/heap/allocs:objects")) }

func readHeapCounter(name string) int64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// countMetrics derives the per-layer count metrics from the registry
// deltas of the traced run's closed loop.
func (t *tracer) countMetrics(before, after map[string]float64, ops, responseBytes float64) map[string]metric {
	delta := func(prefix string) float64 {
		var total float64
		for key, v := range after {
			if strings.HasPrefix(key, prefix) {
				total += v - before[key]
			}
		}
		return total
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	put("store.payload_bytes_per_op", delta("goblaz_store_payload_bytes_total")/ops, "B")
	performed, skipped := delta("goblaz_store_crc_verifies_total{outcome=performed}"), delta("goblaz_store_crc_verifies_total{outcome=skipped}")
	put("store.crc_verify_share", ratio(performed, performed+skipped), "ratio")

	put("query.compressed_share", ratio(delta("goblaz_query_requests_total{space=compressed}"), delta("goblaz_query_requests_total")), "ratio")
	hits, misses := delta("goblaz_query_cache_hits_total"), delta("goblaz_query_cache_misses_total")
	put("query.cache_hit_share", ratio(hits, hits+misses), "ratio")
	put("query.cache_coalesced", delta("goblaz_query_cache_coalesced_total"), "count")
	put("query.cache_evicted_bytes_per_op", delta("goblaz_query_cache_evicted_bytes_total")/ops, "B")
	// A frame answered outside compressed space came from the decoded
	// cache or from a fresh decompression; with the cache off neither
	// counter moves and every such frame was decompressed.
	inSpace, fallback := delta("goblaz_query_frames_total{space=compressed}"), delta("goblaz_query_frames_total{space=fallback}")
	cached := math.Min(hits, fallback)
	t.frameShares = map[string]float64{
		"compressed": ratio(inSpace, inSpace+fallback),
		"cached":     ratio(cached, inSpace+fallback),
		"decoded":    ratio(fallback-cached, inSpace+fallback),
	}

	put("api.limit_queue_wait_ms", 1e3*ratio(delta("goblaz_limit_queue_wait_seconds_sum"), delta("goblaz_limit_queue_wait_seconds_count")), "ms")
	shed := delta("goblaz_limit_shed_total")
	put("api.limit_shed_share", ratio(shed, shed+delta("goblaz_limit_admitted_total")), "ratio")

	put("httpapi.response_bytes_per_op", responseBytes/ops, "B")

	parts, skippedShards := delta("goblaz_shard_parts_total"), delta("goblaz_shard_shards_skipped_total")
	put("shard.parts_per_query", ratio(parts, delta("goblaz_shard_queries_total")), "count")
	put("shard.skipped_share", ratio(skippedShards, parts+skippedShards), "ratio")

	put("cluster.parts_per_query", ratio(delta("goblaz_cluster_parts_total"), delta("goblaz_cluster_queries_total")), "count")
	put("cluster.remote_frames_per_op", delta("goblaz_cluster_remote_frames_total")/ops, "count")
	put("cluster.failovers", delta("goblaz_cluster_failover_total"), "count")

	put("ingest.wal_fsync_ms", 1e3*ratio(delta("goblaz_ingest_wal_fsync_seconds_sum"), delta("goblaz_ingest_wal_fsync_seconds_count")), "ms")
	put("ingest.commits", delta("goblaz_ingest_commits_total"), "count")
	put("ingest.compactions", delta("goblaz_ingest_compactions_total"), "count")
	frameBytes := float64(t.st.fs.raw[0].Len()) * 8
	put("ingest.wal_bytes_per_raw_byte", ratio(delta("goblaz_ingest_wal_bytes_total"), delta("goblaz_ingest_frames_total")*frameBytes), "B/B")
	return out
}
