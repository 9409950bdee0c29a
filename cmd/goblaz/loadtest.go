package main

// The loadtest subcommand: a mixed-traffic generator for the v1 service
// layer. It drives aggregate queries, full-frame decodes, and region
// reads against any backend the CLI can open — a store path, a dataset
// manifest, or a serving URL — paced to a target RPS (or closed-loop
// when -rps 0), and reports a latency histogram (p50/p95/p99), the
// achieved throughput, and an error budget verdict. Results are written
// as a JSON benchmark artifact so runs can be diffed across commits.
//
//	goblaz loadtest -duration 30s -rps 200 -workers 16 out.gbz
//	goblaz loadtest -mix query=1,frame=2,region=4 http://localhost:8080
//	goblaz loadtest -duration 10s -cpuprofile cpu.out -out BENCH_6.json run.json

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/query"
)

// opKind is one of the traffic classes in the mix.
type opKind int

const (
	opQuery opKind = iota
	opFrame
	opRegion
	opIngest
	numOps
)

var opNames = [numOps]string{"query", "frame", "region", "ingest"}

// sample is one completed request: what it was, how long it took, and
// how it ended.
type sample struct {
	op         opKind
	latency    time.Duration
	err        error
	overloaded bool
}

// loadReport is the benchmark artifact schema. Field names are stable:
// BENCH_*.json files are diffed across commits.
type loadReport struct {
	Bench      string  `json:"bench"`
	Target     string  `json:"target"`
	DurationS  float64 `json:"duration_s"`
	Workers    int     `json:"workers"`
	TargetRPS  float64 `json:"target_rps,omitempty"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	Overloaded int     `json:"overloaded"`
	ErrorRate  float64 `json:"error_rate"`
	Throughput float64 `json:"throughput_rps"`
	LatencyMS  struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Mix    map[string]int `json:"mix"`
	Ingest *ingestReport  `json:"ingest,omitempty"`
	Server *serverDelta   `json:"server,omitempty"`
}

// ingestReport is the write-path section of the artifact, present when
// the mix includes ingest. Frame throughput comes from the client-side
// samples; the WAL fsync tail comes from the metrics registry — the
// in-process one for local appendable stores, the scraped server
// snapshot when -metrics-url points at the serving instance.
type ingestReport struct {
	Frames        int     `json:"frames"`
	ThroughputFPS float64 `json:"throughput_fps"`
	WALFsyncCount uint64  `json:"wal_fsync_count,omitempty"`
	WALFsyncP99MS float64 `json:"wal_fsync_p99_ms,omitempty"`
}

// serverDelta is the server-side view of a run: the change in the
// scraped /v1/debug/metrics snapshot between the start and the end of
// the load window. It attributes what the client-side numbers cannot —
// whether latency came from decode work or cache hits, and how much
// load the admission controller turned away.
type serverDelta struct {
	MetricsURL    string  `json:"metrics_url"`
	HTTPRequests  float64 `json:"http_requests"`
	CacheHits     float64 `json:"cache_hits"`
	CacheMisses   float64 `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	Coalesced     float64 `json:"coalesced"`
	Shed          float64 `json:"shed"`
	FramesDecoded float64 `json:"frames_decoded"`
}

// deltaOf diffs two flattened snapshots into the report section.
// Counters monotonically increase, so after-before is the run's share.
func deltaOf(url string, before, after map[string]float64) *serverDelta {
	d := &serverDelta{MetricsURL: url}
	sum := func(prefix string) float64 {
		var total float64
		for key, v := range after {
			if strings.HasPrefix(key, prefix) {
				total += v - before[key]
			}
		}
		return total
	}
	d.HTTPRequests = sum("goblaz_http_requests_total")
	d.CacheHits = sum("goblaz_query_cache_hits_total")
	d.CacheMisses = sum("goblaz_query_cache_misses_total")
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		d.CacheHitRatio = d.CacheHits / lookups
	}
	d.Coalesced = sum("goblaz_query_cache_coalesced_total")
	d.Shed = sum("goblaz_limit_shed_total")
	d.FramesDecoded = sum("goblaz_query_frames_total{space=fallback}")
	return d
}

// parseMix parses "query=1,frame=2,region=4" into per-op weights. Ops
// left out get weight 0; an empty spec means uniform reads (ingest is
// opt-in — it mutates the target, so it never rides in by default).
func parseMix(spec string) ([numOps]int, error) {
	weights := [numOps]int{1, 1, 1, 0}
	if spec == "" {
		return weights, nil
	}
	weights = [numOps]int{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return weights, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return weights, fmt.Errorf("bad mix weight %q", part)
		}
		found := false
		for op, opName := range opNames {
			if name == opName {
				weights[op] = w
				found = true
			}
		}
		if !found {
			return weights, fmt.Errorf("unknown op %q in mix (have query, frame, region, ingest)", name)
		}
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return weights, fmt.Errorf("mix %q has no positive weights", spec)
	}
	return weights, nil
}

// pickTable expands weights into a lookup slice for O(1) weighted
// sampling.
func pickTable(weights [numOps]int) []opKind {
	var table []opKind
	for op, w := range weights {
		for i := 0; i < w; i++ {
			table = append(table, opKind(op))
		}
	}
	return table
}

// loadTarget is everything a worker needs to build requests: the frame
// labels it can hit, the frame shape for region reads, and — when the
// mix writes — the ingest sink plus a label counter parked above every
// existing label so concurrent workers never collide.
type loadTarget struct {
	b      api.Backend
	ing    api.Ingestor
	labels []int
	shape  []int
	next   atomic.Int64
}

// newFrame builds one random frame of the target's shape for ingest,
// claiming a fresh label from the shared counter.
func (lt *loadTarget) newFrame(rng *rand.Rand) api.IngestFrame {
	n := 1
	for _, d := range lt.shape {
		n *= d
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return api.IngestFrame{Label: int(lt.next.Add(1) - 1), Shape: lt.shape, Data: data}
}

// fire issues one request of the given kind and classifies the result.
func (lt *loadTarget) fire(ctx context.Context, rng *rand.Rand, op opKind) sample {
	label := lt.labels[rng.Intn(len(lt.labels))]
	// Frame generation happens off the clock: the measured latency is
	// the ingest call, not the client-side random fill.
	var frames []api.IngestFrame
	if op == opIngest {
		frames = []api.IngestFrame{lt.newFrame(rng)}
	}
	start := time.Now()
	var err error
	switch op {
	case opQuery:
		_, err = lt.b.Query(ctx, &query.Request{
			Select:     query.Selector{Labels: strconv.Itoa(label)},
			Aggregates: []string{query.AggMean, query.AggMax},
		})
	case opFrame:
		_, err = lt.b.Frame(ctx, label)
	case opRegion:
		offset, shape := randomRegion(rng, lt.shape)
		_, err = lt.b.Region(ctx, label, offset, shape)
	case opIngest:
		_, err = lt.ing.Ingest(ctx, frames)
	}
	s := sample{op: op, latency: time.Since(start), err: err}
	if api.CodeOf(err) == api.CodeOverloaded {
		// Shed requests are the admission controller doing its job, not a
		// correctness failure: tracked separately from the error budget.
		s.err, s.overloaded = nil, true
	}
	return s
}

// randomRegion picks a small axis-aligned sub-array inside shape: up to
// 8 elements per dimension at a random valid offset.
func randomRegion(rng *rand.Rand, frameShape []int) (offset, shape []int) {
	offset = make([]int, len(frameShape))
	shape = make([]int, len(frameShape))
	for d, n := range frameShape {
		ext := min(8, n)
		shape[d] = 1 + rng.Intn(ext)
		offset[d] = rng.Intn(n - shape[d] + 1)
	}
	return offset, shape
}

func runLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	workers := fs.Int("workers", 8, "concurrent request workers")
	rps := fs.Float64("rps", 0, "target request rate across all workers (0 = closed loop, as fast as the workers go)")
	mixSpec := fs.String("mix", "", `traffic mix weights, e.g. "query=1,frame=2,region=4" (default uniform)`)
	out := fs.String("out", "BENCH_6.json", "write the JSON benchmark artifact here (empty disables)")
	budget := fs.Float64("error-budget", 0, "maximum tolerated error rate before the run fails, e.g. 0.01")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "decoded-frame cache budget for in-process backends (0 disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the client side here")
	memprofile := fs.String("memprofile", "", "write a heap profile here after the run")
	metricsURL := fs.String("metrics-url", "", "scrape this server's /v1/debug/metrics before and after, embedding the delta in the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("loadtest needs one store path, manifest, or URL")
	}
	if *workers < 1 {
		return fmt.Errorf("loadtest needs at least one worker")
	}
	weights, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}

	target := fs.Arg(0)
	var (
		b      api.Backend
		closeB func() error
	)
	if weights[opIngest] > 0 && classify(target) == kindStore {
		// A plain store path with ingest in the mix opens appendable, so
		// writes land in the WAL beside the file instead of being refused
		// by the read-only backend.
		s, err := ingest.Open(target, ingest.Options{CommitFrames: 64, CacheBytes: *cacheBytes})
		if err != nil {
			return err
		}
		b, closeB = s, s.Close
	} else if _, b, closeB, err = open(target, query.Options{CacheBytes: *cacheBytes}, *timeout); err != nil {
		return err
	}
	defer closeB()
	ing, ok := b.(api.Ingestor)
	if weights[opIngest] > 0 && !ok {
		return fmt.Errorf("mix includes ingest but %s does not accept it", target)
	}
	ctx := context.Background()
	infos, err := b.Frames(ctx)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		return fmt.Errorf("%s holds no frames to load-test against", fs.Arg(0))
	}
	labels := make([]int, len(infos))
	for i, e := range infos {
		labels[i] = e.Label
	}
	// One priming decode learns the frame shape for region requests and
	// warms any server-side cache out of the measured window.
	first, err := b.Frame(ctx, labels[0])
	if err != nil {
		return fmt.Errorf("priming frame %d: %w", labels[0], err)
	}
	lt := &loadTarget{b: b, ing: ing, labels: labels, shape: first.Shape}
	maxLabel := labels[0]
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	lt.next.Store(int64(maxLabel + 1))

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// The before-scrape comes after priming, so the warm-up decode does
	// not pollute the run's server-side delta.
	var before map[string]float64
	if *metricsURL != "" {
		snap, err := scrapeSnapshot(*metricsURL, *timeout)
		if err != nil {
			return fmt.Errorf("before-run metrics scrape: %w", err)
		}
		before = snap.Flatten()
	}

	table := pickTable(weights)
	runCtx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	// Open-loop pacing: a central ticker feeds a token bucket sized to
	// the worker pool, so a stalled backend sheds offered load instead of
	// queueing it forever (latencies stay honest under overload).
	var tokens chan struct{}
	if *rps > 0 {
		tokens = make(chan struct{}, *workers)
		interval := time.Duration(float64(time.Second) / *rps)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		go func() {
			for {
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
					select {
					case tokens <- struct{}{}:
					default: // workers are behind: drop the tick
					}
				}
			}
		}()
	}

	results := make([][]sample, *workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + start.UnixNano()))
			for {
				if tokens != nil {
					select {
					case <-runCtx.Done():
						return
					case <-tokens:
					}
				} else if runCtx.Err() != nil {
					return
				}
				op := table[rng.Intn(len(table))]
				s := lt.fire(ctx, rng, op)
				if errors.Is(s.err, context.Canceled) || errors.Is(s.err, context.DeadlineExceeded) {
					return // the run window closed mid-request
				}
				results[w] = append(results[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	report := summarize(results, fs.Arg(0), elapsed, *workers, *rps)
	var serverSnap *obs.Snapshot
	if before != nil {
		snap, err := scrapeSnapshot(*metricsURL, *timeout)
		if err != nil {
			return fmt.Errorf("after-run metrics scrape: %w", err)
		}
		report.Server = deltaOf(*metricsURL, before, snap.Flatten())
		serverSnap = &snap
	}
	if weights[opIngest] > 0 {
		// WAL fsync latency lives wherever the store does: the local
		// registry for in-process appendable stores, the scraped server
		// snapshot for remote ones.
		snap := obs.Default.Snapshot()
		if serverSnap != nil {
			snap = *serverSnap
		}
		report.Ingest = ingestSection(results, elapsed, snap)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("loadtest %s: %d requests in %.1fs (%.1f rps), %d errors, %d shed\n",
		fs.Arg(0), report.Requests, report.DurationS, report.Throughput, report.Errors, report.Overloaded)
	fmt.Printf("latency ms: p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		report.LatencyMS.P50, report.LatencyMS.P95, report.LatencyMS.P99, report.LatencyMS.Max)
	if report.Ingest != nil {
		fmt.Printf("ingest: %d frames (%.1f frames/s), wal fsync p99=%.3fms over %d syncs\n",
			report.Ingest.Frames, report.Ingest.ThroughputFPS,
			report.Ingest.WALFsyncP99MS, report.Ingest.WALFsyncCount)
	}
	if report.Server != nil {
		fmt.Printf("server: %g http requests, cache hit ratio %.2f (%g hits / %g misses, %g coalesced), %g shed\n",
			report.Server.HTTPRequests, report.Server.CacheHitRatio,
			report.Server.CacheHits, report.Server.CacheMisses, report.Server.Coalesced, report.Server.Shed)
	}
	if report.Requests == 0 {
		return fmt.Errorf("no requests completed inside %v", *duration)
	}
	if report.ErrorRate > *budget {
		return fmt.Errorf("error rate %.4f exceeds budget %.4f (%d/%d failed)",
			report.ErrorRate, *budget, report.Errors, report.Requests)
	}
	return nil
}

// ingestSection builds the write-path report: successful frame count
// and throughput from the samples, WAL fsync tail from the registry
// snapshot's goblaz_ingest_wal_fsync_seconds family.
func ingestSection(results [][]sample, elapsed time.Duration, snap obs.Snapshot) *ingestReport {
	ir := &ingestReport{}
	for _, ws := range results {
		for _, s := range ws {
			if s.op == opIngest && s.err == nil && !s.overloaded {
				ir.Frames++
			}
		}
	}
	if elapsed > 0 {
		ir.ThroughputFPS = float64(ir.Frames) / elapsed.Seconds()
	}
	for _, m := range snap.Metrics {
		if m.Name != "goblaz_ingest_wal_fsync_seconds" {
			continue
		}
		for _, smp := range m.Samples {
			ir.WALFsyncCount += smp.Count
			if ms := smp.P99 * 1000; ms > ir.WALFsyncP99MS {
				ir.WALFsyncP99MS = ms
			}
		}
	}
	return ir
}

// summarize merges per-worker samples into the benchmark artifact.
func summarize(results [][]sample, target string, elapsed time.Duration, workers int, rps float64) *loadReport {
	r := &loadReport{
		Bench:     "loadtest",
		Target:    target,
		DurationS: elapsed.Seconds(),
		Workers:   workers,
		TargetRPS: rps,
		Mix:       map[string]int{},
	}
	var latencies []time.Duration
	for _, ws := range results {
		for _, s := range ws {
			r.Requests++
			r.Mix[opNames[s.op]]++
			latencies = append(latencies, s.latency)
			if s.overloaded {
				r.Overloaded++
			} else if s.err != nil {
				r.Errors++
			}
		}
	}
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
		r.Throughput = float64(r.Requests) / elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.LatencyMS.P50 = ms(percentile(latencies, 0.50))
	r.LatencyMS.P95 = ms(percentile(latencies, 0.95))
	r.LatencyMS.P99 = ms(percentile(latencies, 0.99))
	if n := len(latencies); n > 0 {
		r.LatencyMS.Max = ms(latencies[n-1])
	}
	return r
}

// percentile reads the p-quantile from an ascending-sorted slice by
// nearest-rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
