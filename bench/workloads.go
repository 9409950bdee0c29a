package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/api/httpapi"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
)

// clients is the closed-loop client count of every workload: callers
// here are SDK clients and analysis scripts that wait for each reply,
// and 2 is nproc on the reference box.
const clients = 2

// serveTimeout is `goblaz serve`'s default per-request deadline.
const serveTimeout = 55 * time.Second

// workload is one traffic mix over one topology. Names are final: later
// issues cite them.
type workload struct {
	name string
	why  string
	// frames generates the raw corpus; build packs it under dir and
	// opens the serving stack. Together they are what setup_s times.
	frames func(sz sizes) *frameSet
	build  func(e *env, fs *frameSet) (*stack, error)
	mix    func(sz sizes, fs *frameSet) []mixEntry
	// wantCompressed, when non-nil, is the executedInCompressedSpace
	// flag every flagged answer must carry.
	wantCompressed *bool
	// levels lists the traced run's layer boundaries, lowest first.
	levels func(t *tracer) []level
	// traceN is how many requests each level of the traced run replays.
	traceN int
	// rate is how many ops the workload measures per second of
	// -seconds: its closed-loop throughput on the 2-core reference box at
	// the commit that added the benchmark, rounded down, then frozen.
	// It fixes the op count, so it must not follow later speed-ups.
	rate int
	// segments, when above 1, has the quiet slices picked within each of
	// that many consecutive parts of the run instead of over the whole
	// run (see timeSlices): for a workload whose latency drifts as the
	// run goes on.
	segments int
}

// env is what a build needs from the run around it.
type env struct {
	sz  sizes
	dir string // scratch directory of this set-up
	hc  *http.Client
}

// stack is an opened serving topology.
type stack struct {
	fs      *frameSet
	backend api.Backend  // what the closed-loop clients call
	dataDir string       // packed files: stored bytes and the corpus sha256 come from here
	packS   float64      // seconds spent compressing and writing, for series.pack_mb_s
	live    *liveState   // ingest_live only
	store   api.Backend  // ingest_live only: the ingest.Store itself, below the HTTP hop
	settle  func() error // ingest_live only: commit what is pending and compact
	// openRef opens a query engine directly over the same stored bytes,
	// the reference the served answers must equal at 1e-9.
	openRef func() (*reference, error)
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func (s *stack) onClose(fn func()) { s.closers = append(s.closers, fn) }

// serve starts an in-process HTTP server for h on a loopback port.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	s.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

func handlerFor(b api.Backend) http.Handler {
	return httpapi.New(b, nil, httpapi.Options{RequestTimeout: serveTimeout})
}

// newClient is the SDK client the workloads drive. Retries are off so
// a refused or failed request is counted, not hidden.
func newClient(e *env, url string) (*api.Client, error) {
	return api.NewClient(url, api.ClientOptions{HTTPClient: e.hc, Retries: -1})
}

func boolPtr(b bool) *bool { return &b }

var workloads = []*workload{
	{
		name:   "compressed_analytics",
		why:    "api.Local over mmap'd 256x256 int8 frames, cache off: bit-unpack and core op kernels do nearly all the work; HTTP, shard, cluster, ingest idle",
		frames: genGrid,
		build: func(e *env, fs *frameSet) (*stack, error) {
			return buildAnalytics(e, fs, query.Options{})
		},
		mix:            analyticsMix,
		wantCompressed: boolPtr(true),
		levels:         func(t *tracer) []level { return analyticsLevels(t, query.Options{}) },
		traceN:         100,
		rate:           320, // decode_analytics' rate: the pair runs the identical list
	},
	{
		name:   "decode_analytics",
		why:    "the identical request list with ForceDecode: the paper's decompress-then-compute baseline; core op kernels idle, Decode and Decompress loaded",
		frames: genGrid,
		build: func(e *env, fs *frameSet) (*stack, error) {
			return buildAnalytics(e, fs, query.Options{ForceDecode: true})
		},
		mix:            analyticsMix,
		wantCompressed: boolPtr(false),
		levels:         func(t *tracer) []level { return analyticsLevels(t, query.Options{ForceDecode: true}) },
		traceN:         100,
		rate:           320,
	},
	{
		name:   "serve_mixed",
		why:    "api.Client over HTTP to a limited 4-shard mixed-codec dataset of small volumes, cache a third its size, Zipf labels: framing, admission, scatter and LRU beside codec work",
		frames: genVol,
		build:  buildServeMixed,
		mix:    serveMixedMix,
		levels: serveMixedLevels,
		traceN: 200,
		rate:   3000,
	},
	{
		name:   "cluster_scatter",
		why:    "cluster.Coordinator over three shard servers of tiny frames: the hop, sub-request fan-out, Moments merge and remote-frame fetch are on the clock only here",
		frames: genTiles,
		build:  buildCluster,
		mix:    clusterMix,
		levels: clusterLevels,
		traceN: 200,
		rate:   1000,
	},
	{
		name:   "ingest_live",
		why:    "api.Client over HTTP to an ingest.Store taking 2-frame batches beside reads: NDJSON framing, Compress, Encode, WAL fsync, commit and compaction share the clock with Decode",
		frames: genLive,
		build:  buildIngest,
		mix:    ingestMix,
		levels: ingestLevels,
		traceN: 200,
		rate:   900,
		// The store grows by two frames per ingest op and a read selects
		// its frame by matching the label against every frame, so read
		// latency doubles over the run; picked over the whole run the
		// quiet slices would all be the first ones.
		segments: 5,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- compressed_analytics / decode_analytics ----

func buildAnalytics(e *env, fs *frameSet, opts query.Options) (*stack, error) {
	st := &stack{fs: fs, dataDir: filepath.Join(e.dir, "data")}
	path := filepath.Join(st.dataDir, gridFile)
	if err := timedPack(st, func() error { return packStore(path, fs, 0, len(fs.raw)) }); err != nil {
		return nil, err
	}
	local, err := api.OpenLocal(path, opts)
	if err != nil {
		return nil, err
	}
	st.onClose(func() { local.Close() })
	st.backend = local
	// The reference of the analytics pair is the decode path: what
	// compressed space must match at 1e-6 and decode at 1e-9.
	st.openRef = func() (*reference, error) {
		return openStoreRef(path, query.Options{ForceDecode: true, CacheBytes: refCacheBytes})
	}
	return st, nil
}

// analyticsMix is 50 % per-frame aggregates, 30 % metric against label
// 0, 20 % reduce over one frame.
func analyticsMix(sz sizes, fs *frameSet) []mixEntry {
	n := len(fs.labels)
	metrics := []string{query.MetricMSE, query.MetricDot, query.MetricCosine}
	return []mixEntry{
		{classQuery, 5, func(rng *rand.Rand, r *request) {
			r.Label = fs.labels[rng.Intn(n)]
			r.Aggs = []string{query.AggMean, query.AggVariance, query.AggL2Norm}
		}},
		{classMetric, 3, func(rng *rand.Rand, r *request) {
			r.Label = fs.labels[1+rng.Intn(n-1)] // never the reference itself
			r.Metric = metrics[rng.Intn(len(metrics))]
			r.Ref = fs.labels[0]
		}},
		// One frame per reduction, not two: a multi-frame request queues
		// per-frame tasks on the shared worker pool, and under ForceDecode
		// a goroutine that is decompressing frame f (and owns its
		// singleflight decode) helps drain that queue while it waits, can
		// pick up another request's task for the same f, and then waits
		// on itself. Two clients hit that within seconds at the parent
		// commit; the benchmark has to run to completion, so it keeps
		// the analytics pair to single-frame requests.
		{classReduce, 2, func(rng *rand.Rand, r *request) {
			from := rng.Intn(n)
			r.Range = []int{from, from + 1}
			r.Aggs = []string{query.AggMean, query.AggStdDev}
		}},
	}
}

// ---- serve_mixed ----

func buildServeMixed(e *env, fs *frameSet) (*stack, error) {
	st := &stack{fs: fs, dataDir: filepath.Join(e.dir, "data")}
	manifest := filepath.Join(st.dataDir, volManifest)
	if err := timedPack(st, func() error { return packSharded(manifest, fs, 4) }); err != nil {
		return nil, err
	}
	over, err := buildServeMixedOver(e, fs, manifest)
	if err != nil {
		return nil, err
	}
	st.backend, st.closers = over.backend, over.closers
	st.openRef = func() (*reference, error) { return openDatasetRef(manifest, query.Options{CacheBytes: refCacheBytes}) }
	return st, nil
}

// limited wraps b in admission control sized to the client count:
// `goblaz serve` ships with the limiter off (-max-concurrent 0), which
// would leave api.Limit off the clock entirely, so the benchmark turns
// it on at a width that admits both clients and never sheds.
func limited(b api.Backend) api.Backend {
	return api.Limit(b, api.LimitOptions{MaxConcurrent: clients, MaxQueue: 4 * clients})
}

// popularLabel maps a Zipf rank to a label. The stride is coprime to
// the label count, so the popular ranks spread over all three codecs
// instead of sitting in the first shard.
func popularLabel(fs *frameSet, rank int) int {
	return fs.labels[(rank*7)%len(fs.labels)]
}

func serveMixedMix(sz sizes, fs *frameSet) []mixEntry {
	z := newZipf(len(fs.labels), 1.1)
	shape := fs.raw[0].Shape()
	var globs []string // one glob per label decade present: "?", "1?", "2?"
	for d := 0; d*10 < len(fs.labels); d++ {
		if d == 0 {
			globs = append(globs, "?")
		} else {
			globs = append(globs, fmt.Sprintf("%d?", d))
		}
	}
	label := func(rng *rand.Rand) int { return popularLabel(fs, z.draw(rng)) }
	return []mixEntry{
		{classQuery, 2, func(rng *rand.Rand, r *request) {
			r.Label = label(rng)
			r.Aggs = []string{query.AggMean, query.AggStdDev, query.AggMin, query.AggMax}
		}},
		{classRegion, 2, func(rng *rand.Rand, r *request) {
			r.Label = label(rng)
			r.Offset, r.Shape = randomRegion(rng, shape, 8)
		}},
		{classFrame, 1, func(rng *rand.Rand, r *request) { r.Label = label(rng) }},
		{classPayload, 1, func(rng *rand.Rand, r *request) { r.Label = label(rng) }},
		{classReduce, 1, func(rng *rand.Rand, r *request) {
			r.Glob = globs[rng.Intn(len(globs))]
			r.Aggs = []string{query.AggMean, query.AggStdDev}
		}},
	}
}

// ---- cluster_scatter ----

const clusterShards = 3

func buildCluster(e *env, fs *frameSet) (*stack, error) {
	st := &stack{fs: fs, dataDir: filepath.Join(e.dir, "data")}
	per := len(fs.raw) / clusterShards
	err := timedPack(st, func() error {
		for s := 0; s < clusterShards; s++ {
			if err := packStore(clusterShardPath(st.dataDir, s), fs, s*per, (s+1)*per); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	over, err := buildClusterOver(e, fs, st.dataDir)
	if err != nil {
		return nil, err
	}
	st.backend, st.closers = over.backend, over.closers
	// The reference is one store holding every frame; it lives outside
	// dataDir so stored bytes count the three shard stores only.
	all := filepath.Join(e.dir, tilesAllFile)
	st.openRef = func() (*reference, error) {
		if err := packStore(all, fs, 0, len(fs.raw)); err != nil {
			return nil, err
		}
		return openStoreRef(all, query.Options{CacheBytes: refCacheBytes})
	}
	return st, nil
}

// clusterMix is 2 reductions over every frame, 1 mse against a
// reference on another shard, 2 routed single-frame regions.
func clusterMix(sz sizes, fs *frameSet) []mixEntry {
	n := len(fs.labels)
	per := n / clusterShards
	shape := fs.raw[0].Shape()
	return []mixEntry{
		{classReduce, 2, func(rng *rand.Rand, r *request) {
			r.Aggs = []string{query.AggMean, query.AggVariance}
		}},
		{classMetric, 1, func(rng *rand.Rand, r *request) {
			i := rng.Intn(n)
			other := (i/per + 1 + rng.Intn(clusterShards-1)) % clusterShards
			r.Label, r.Ref = fs.labels[i], fs.labels[other*per+rng.Intn(per)]
			r.Metric = query.MetricMSE
		}},
		{classRegion, 2, func(rng *rand.Rand, r *request) {
			r.Label = fs.labels[rng.Intn(n)]
			r.Offset, r.Shape = randomRegion(rng, shape, 8)
		}},
	}
}

// ---- ingest_live ----

// liveState tracks which ingested labels are known to be committed, so
// reads only target frames the store has promised to serve.
type liveState struct {
	fs      *frameSet
	initial int // labels 0..initial-1 were committed during set-up

	mu        sync.Mutex
	acked     []int // acknowledged labels, in acknowledgement order
	committed int   // acked[:committed] are under a footer
}

// The label ranges of the three ingest phases never overlap.
const (
	warmLabelBase    = 1_000_000
	measureLabelBase = 2_000_000
	traceLabelBase   = 3_000_000
)

// poolIndex is the position in the pool of the raw frame ingested under
// label.
func (l *liveState) poolIndex(label int) int { return label % len(l.fs.raw) }

// pick maps u in [0,1) to one of the committed labels.
func (l *liveState) pick(u float64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := int(u * float64(l.initial+l.committed))
	if i < l.initial {
		return i
	}
	return l.acked[i-l.initial]
}

// mark snapshots the acknowledged count before a batch is sent. A
// batch acknowledged before another was sent is pending or committed
// by the time that other batch's commit runs.
func (l *liveState) mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

// ack records an acknowledged batch; when the batch itself triggered a
// commit, everything acknowledged before it was sent is now committed.
func (l *liveState) ack(labels []int, mark int, committed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if committed && mark > l.committed {
		l.committed = mark
	}
	l.acked = append(l.acked, labels...)
}

func (l *liveState) ackedLabels() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.acked...)
}

func ingestOptions(sz sizes) ingest.Options {
	// CommitInterval stays 0: commits are driven by the frame count
	// alone, so their number follows the traffic, not the clock. The
	// store then checks the compaction threshold once a second.
	return ingest.Options{Spec: specLive, CommitFrames: sz.commitFrames, CompactBytes: sz.compactBytes}
}

func ingestFrames(fs *frameSet, labels ...int) []api.IngestFrame {
	out := make([]api.IngestFrame, len(labels))
	for i, label := range labels {
		t := fs.raw[label%len(fs.raw)]
		out[i] = api.IngestFrame{Label: label, Shape: t.Shape(), Data: t.Data()}
	}
	return out
}

func buildIngest(e *env, fs *frameSet) (*stack, error) {
	st := &stack{fs: fs, dataDir: filepath.Join(e.dir, "data")}
	path := filepath.Join(st.dataDir, liveFile)
	var is *ingest.Store
	// Set-up commits one full commit interval of frames, so reads have
	// committed targets from the first request.
	err := timedPack(st, func() error {
		var err error
		if is, err = ingest.Create(path, ingestOptions(e.sz)); err != nil {
			return err
		}
		for label := 0; label < e.sz.commitFrames; label += 2 {
			if _, err := is.Ingest(context.Background(), ingestFrames(fs, label, label+1)); err != nil {
				is.Close()
				return err
			}
		}
		return is.Commit(context.Background())
	})
	if err != nil {
		return nil, err
	}
	closed := false
	closeStore := func() error {
		if closed {
			return nil
		}
		closed = true
		return is.Close()
	}
	st.onClose(func() { closeStore() })
	url, err := st.serve(handlerFor(is))
	if err != nil {
		st.close()
		return nil, err
	}
	if st.backend, err = newClient(e, url); err != nil {
		st.close()
		return nil, err
	}
	st.store = is
	st.live = &liveState{fs: fs, initial: e.sz.commitFrames}
	st.settle = func() error {
		if err := is.Commit(context.Background()); err != nil {
			return err
		}
		return is.Compact()
	}
	// The reference is the reopened store: closing first is what makes
	// "every acknowledged frame is present" a durability check.
	st.openRef = func() (*reference, error) {
		if err := closeStore(); err != nil {
			return nil, err
		}
		return openStoreRef(path, query.Options{CacheBytes: refCacheBytes})
	}
	return st, nil
}

// ingestMix is 1 two-frame batch, 2 stats and 2 regions on committed
// labels.
func ingestMix(sz sizes, fs *frameSet) []mixEntry {
	shape := fs.raw[0].Shape()
	return []mixEntry{
		{classIngest, 1, func(rng *rand.Rand, r *request) {}},
		{classQuery, 2, func(rng *rand.Rand, r *request) {
			r.Pick = rng.Float64()
			r.Aggs = api.AllAggregates
		}},
		{classRegion, 2, func(rng *rand.Rand, r *request) {
			r.Pick = rng.Float64()
			r.Offset, r.Shape = randomRegion(rng, shape, 8)
		}},
	}
}

// ---- references ----

// reference is a query engine opened directly over stored bytes, with
// no server, limiter or cache in between.
type reference struct {
	src   frameSource
	eng   *query.Engine
	close func()
}

func openStoreRef(path string, opts query.Options) (*reference, error) {
	r, err := store.OpenReaderMmap(path)
	if err != nil {
		return nil, err
	}
	return &reference{src: r, eng: query.New(r, opts), close: func() { r.Close() }}, nil
}

func openDatasetRef(manifest string, opts query.Options) (*reference, error) {
	ds, err := shard.Open(manifest, opts)
	if err != nil {
		return nil, err
	}
	return &reference{src: ds, eng: query.New(ds, opts), close: func() { ds.Close() }}, nil
}

// timedPack creates the stack's data directory and runs pack, adding
// its wall time to the stack's pack seconds.
func timedPack(st *stack, pack func() error) error {
	if err := os.MkdirAll(st.dataDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	err := pack()
	st.packS += time.Since(start).Seconds()
	return err
}

// buildClusterOver and buildServeMixedOver open the serving topology
// over files a set-up already packed.
func buildClusterOver(e *env, fs *frameSet, dataDir string) (*stack, error) {
	st := &stack{fs: fs, dataDir: dataDir}
	topo := &cluster.Topology{Version: cluster.TopologyVersion, Dataset: "tiles", Placement: cluster.PlacementContiguous}
	for s := 0; s < clusterShards; s++ {
		local, err := api.OpenLocal(clusterShardPath(dataDir, s), query.Options{CacheBytes: e.sz.shardCacheBytes})
		if err != nil {
			st.close()
			return nil, err
		}
		st.onClose(func() { local.Close() })
		url, err := st.serve(handlerFor(local))
		if err != nil {
			st.close()
			return nil, err
		}
		topo.Shards = append(topo.Shards, cluster.ShardSpec{Name: fmt.Sprintf("s%d", s), Replicas: []string{url}})
	}
	// One attempt per call: a retry would hide the failure the run is
	// supposed to count.
	topo.Client.Retries = -1
	coord, err := cluster.New(topo, cluster.Options{HTTPClient: e.hc})
	if err != nil {
		st.close()
		return nil, err
	}
	st.onClose(func() { coord.Close() })
	st.backend = coord
	return st, nil
}

func buildServeMixedOver(e *env, fs *frameSet, manifest string) (*stack, error) {
	st := &stack{fs: fs, dataDir: filepath.Dir(manifest)}
	sharded, err := api.OpenSharded(manifest, query.Options{CacheBytes: e.sz.cacheBytes})
	if err != nil {
		return nil, err
	}
	st.onClose(func() { sharded.Close() })
	url, err := st.serve(handlerFor(limited(sharded)))
	if err != nil {
		st.close()
		return nil, err
	}
	if st.backend, err = newClient(e, url); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func clusterShardPath(dataDir string, s int) string {
	return filepath.Join(dataDir, fmt.Sprintf("tiles-%d.gbz", s))
}

// refCacheBytes lets a reference engine keep every frame it decodes:
// the differential check then costs one decompression per frame, not
// one per compared answer, and a cache cannot change an answer.
const refCacheBytes = 1 << 30
