package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The fixed shape of a run. A workload measures a fixed number of ops —
// its pinned rate times -seconds, about -seconds of wall time at the
// commit that pinned the rate — not a fixed time: the same seed then
// sends the same requests whatever the machine's speed, so op counts,
// cache traffic, bytes per op and the ingest store's growth repeat, and
// a slower commit shows as a longer run, not as different work.
const (
	warmShare = 0.10 // warm-up ops as a share of the measured ops, on a separate seeded list
	// The measured ops are cut into up to windows slices of at least
	// minSliceOps ops; throughput, p50 and p95 come from the fastest one
	// in quietOneIn of them (see timeSlices).
	windows, quietOneIn, minSliceOps = 100, 10, 40
	// Set-up repeats until it has run minSetups times and for
	// setupBudget in total, at most maxSetups times: setup_s is the
	// median, and a set-up of a few milliseconds needs many repeats
	// before its median stops following fsync jitter.
	minSetups, maxSetups = 5, 100
	setupBudget          = 1500 * time.Millisecond
	diffSample           = 200 // measured ops re-run on the reference engine
	// ceiling turns whatever is still unfinished into failures instead of
	// a hung run.
	ceiling = 90 * time.Second
)

// sample is one measured op.
type sample struct {
	class string
	ms    float64
	at    time.Duration // completion time since the phase began
	errSc float64       // answer error in units of its scale
	ok    bool
}

// runOptions selects what a run of one workload does.
type runOptions struct {
	seed    int64
	seconds float64
	sz      sizes
	scratch string  // directory the run may write under
	scale   float64 // multiplies the op counts; 0 means 1. The smoke test runs at 1/50.
	trace   bool
	spans   *recorder // nil unless -trace-out asked for the spans
}

// workloadResult is one workload's section of the output document.
type workloadResult struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Clients    int                `json:"clients"`
	Loop       string             `json:"loop"`
	Mix        map[string]int     `json:"mix"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"` // first few, for diagnosis
	CorpusSHA  string             `json:"corpus_sha256"`
	EndToEnd   map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric  `json:"per_layer,omitempty"`
	Latency    map[string]summary `json:"latency_ms_by_class"`
	Throughput summary            `json:"throughput_ops_s_by_slice"`
	P50        summary            `json:"latency_p50_ms_by_slice"`
	TailQ      float64            `json:"highest_percentile_with_10_samples_beyond"`
	TailMs     float64            `json:"latency_ms_at_that_percentile"` // whole run, no slice dropped
	Shares     map[string]float64 `json:"self_time_share,omitempty"`
	SetupRuns  []float64          `json:"setup_s_runs,omitempty"`
	// FrameShares splits the frames the query engines answered in the
	// traced run's closed loop: in compressed space, from the decoded
	// cache, or by a fresh decompression.
	FrameShares map[string]float64 `json:"frame_shares,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failureLog keeps the count of failed ops and the first few reasons.
type failureLog struct {
	mu      sync.Mutex
	n       int
	reasons []string
}

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

// phase is one closed-loop pass over a request list.
type phase struct {
	st        *stack
	w         *workload
	orc       *oracle
	list      []request
	labelBase int
	fails     *failureLog // nil: warm-up, nothing is recorded
	keepN     int         // answers of the first keepN ops are kept for the differential check
}

// run drives the closed loop: each client sends its next request only
// when the previous one completed. It returns every op's sample and the
// kept answers, ordered by op ordinal.
func (p *phase) run(ctx context.Context) ([]sample, []kept) {
	var next atomic.Int64
	perClient := make([][]sample, clients)
	keptBy := make([]kept, p.keepN)
	keptOK := make([]bool, p.keepN)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, len(p.list)/clients+len(p.list)/8)
			for {
				seq := int(next.Add(1) - 1)
				if seq >= len(p.list) {
					break
				}
				r := &p.list[seq]
				t0 := time.Now()
				a, err := execBackend(ctx, p.st.backend, r, p.st.live, p.labelBase, seq)
				done := time.Now()
				s := sample{class: r.Class, ms: float64(done.Sub(t0)) / 1e6, at: done.Sub(start)}
				if p.fails == nil {
					continue
				}
				if err == nil {
					s.errSc, err = p.orc.check(r, a)
				}
				if err == nil && a.flagged && p.w.wantCompressed != nil && a.compressed != *p.w.wantCompressed {
					err = fmt.Errorf("executedInCompressedSpace = %v", a.compressed)
				}
				if err != nil {
					p.fails.add("op %d (%s): %v", seq, r.Class, err)
				} else {
					s.ok = true
					if seq < p.keepN && r.Class != classIngest {
						keptBy[seq], keptOK[seq] = keep(r, a), true
					}
				}
				out = append(out, s)
			}
			perClient[c] = out
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	var keptOut []kept
	for i, ok := range keptOK {
		if ok {
			keptOut = append(keptOut, keptBy[i])
		}
	}
	return all, keptOut
}

// setUp generates the corpus and opens the stack, timing both.
func setUp(w *workload, e *env) (*stack, float64, error) {
	start := time.Now()
	fs := w.frames(e.sz)
	st, err := w.build(e, fs)
	return st, time.Since(start).Seconds(), err
}

// newHTTPClient gives each run its own connection pool, so closing the
// run's servers leaves nothing behind in a shared transport.
func newHTTPClient(rt func(http.RoundTripper) http.RoundTripper) (*http.Client, func()) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	var top http.RoundTripper = tr
	if rt != nil {
		top = rt(tr)
	}
	return &http.Client{Transport: top}, tr.CloseIdleConnections
}

// runWorkload runs one workload once: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func runWorkload(w *workload, o runOptions) (*workloadResult, error) {
	dir, err := os.MkdirTemp(o.scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), ceiling)
	defer cancel()

	var bytesIn *atomic.Int64
	var wrap func(http.RoundTripper) http.RoundTripper
	if o.trace {
		bytesIn = new(atomic.Int64)
		wrap = func(rt http.RoundTripper) http.RoundTripper { return &countingTransport{rt: rt, n: bytesIn} }
	}
	hc, closeIdle := newHTTPClient(wrap)
	defer closeIdle()

	// Set-up, several times over: setup_s is the median, the last stack
	// is the one the run uses. The traced run reports no setup_s and
	// sets up once.
	var st *stack
	var e *env
	var setups []float64
	var spent float64
	for k := 0; ; k++ {
		e = &env{sz: o.sz, dir: filepath.Join(dir, "setup"+strconv.Itoa(k)), hc: hc}
		var secs float64
		if st, secs, err = setUp(w, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, secs)
		spent += secs
		n := len(setups)
		if o.trace || n == maxSetups || (n >= minSetups && spent >= setupBudget.Seconds()) {
			break
		}
		st.close()
		os.RemoveAll(e.dir)
	}
	defer func() { st.close() }()

	res := &workloadResult{
		Workload: w.name, Why: w.why, Clients: clients, Loop: "closed", Mix: map[string]int{},
		Seed: o.seed, Seconds: o.seconds, SetupRuns: setups,
	}
	mix := w.mix(o.sz, st.fs)
	for _, m := range mix {
		res.Mix[m.class] = m.weight
	}
	var storedStatic int64
	if storedStatic, res.CorpusSHA, err = dirStats(st.dataDir); err != nil {
		return nil, err
	}

	orc := newOracle(st.fs, st.live)
	if o.scale == 0 {
		o.scale = 1
	}
	// The traced run's list is the measured list's prefix, so the layer
	// replays answer the very requests the end-to-end numbers come from.
	nOps := int(float64(w.rate) * o.seconds * o.scale)
	measured := genList(o.seed, nOps, mix)
	if o.trace {
		measured = measured[:int(float64(nOps)*traceLoopShare)]
	}
	if len(measured) == 0 {
		return nil, fmt.Errorf("%s: -seconds %g leaves no ops to measure", w.name, o.seconds)
	}
	warm := genList(o.seed^0x5eed, int(float64(len(measured))*warmShare), mix)

	(&phase{st: st, w: w, orc: orc, list: warm, labelBase: warmLabelBase}).run(ctx)

	fails := &failureLog{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	before := obs.Default.Snapshot().Flatten()
	if bytesIn != nil {
		bytesIn.Store(0)
	}
	runtime.ReadMemStats(&m0)
	samples, keptAnswers := (&phase{st: st, w: w, orc: orc, list: measured, labelBase: measureLabelBase,
		fails: fails, keepN: diffSample}).run(ctx)
	runtime.ReadMemStats(&m1)
	after := obs.Default.Snapshot().Flatten()
	ops := float64(len(samples))

	// Stored bytes: what the run left on disk (store and WAL). The live
	// store is first committed and compacted: its compactions run off a
	// one-second timer, so how many superseded footers the file still
	// carries when the list ends is a matter of timing, not of the code.
	rawBytes := float64(st.fs.rawBytes())
	stored := float64(storedStatic)
	var acked []int
	if st.live != nil {
		acked = st.live.ackedLabels()
		if err := st.settle(); err != nil {
			return nil, fmt.Errorf("%s: final commit and compaction: %w", w.name, err)
		}
		n, _, err := dirStats(st.dataDir)
		if err != nil {
			return nil, err
		}
		stored = float64(n)
		rawBytes = float64(o.sz.commitFrames+len(acked)) * float64(st.fs.raw[0].Len()) * 8
	}

	// Differential checks against an engine opened directly on the same
	// stored bytes; for ingest_live that is the closed and reopened
	// store, so they double as the durability check.
	ref, err := st.openRef()
	if err != nil {
		return nil, fmt.Errorf("%s: opening the reference: %w", w.name, err)
	}
	tol := 1e-9
	if w.wantCompressed != nil && *w.wantCompressed {
		tol = 1e-6 // compressed space against the decode path
	}
	for i := range keptAnswers {
		k := &keptAnswers[i]
		want, err := execReference(ctx, ref, k.req, k.label)
		if err == nil {
			err = sameAnswer(k, want, tol)
		}
		if err != nil {
			fails.add("op (%s, label %d) against the reference: %v", k.req.Class, k.label, err)
		}
	}
	worstErr := 0.0
	for _, s := range samples {
		if s.ok && s.errSc > worstErr {
			worstErr = s.errSc
		}
	}
	if st.live != nil {
		lost, worst := verifyDurable(ctx, ref, orc, acked)
		for _, msg := range lost {
			fails.add("%s", msg)
		}
		if worst > worstErr {
			worstErr = worst
		}
	}
	ref.close()

	res.Attempted = len(samples)
	res.Failed = fails.n
	res.Failures = fails.reasons
	lat := make([]float64, len(samples))
	byClass := map[string][]float64{}
	for i, s := range samples {
		lat[i] = s.ms
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	sort.Float64s(lat)
	res.Latency = map[string]summary{}
	for class, v := range byClass {
		res.Latency[class] = summarize(v)
	}
	res.TailQ, _ = highestTail(len(lat))
	res.TailMs = quantile(lat, res.TailQ)

	if !o.trace {
		t := timeSlices(samples, w.segments)
		res.Throughput, res.P50 = summarize(t.sliceThroughput), summarize(t.sliceP50)
		res.EndToEnd = map[string]metric{
			"setup_s":                   {summarize(setups).Median, "s"},
			"throughput_ops_s":          {t.throughput, "ops/s"},
			"latency_p50_ms":            {t.p50, "ms"},
			"latency_p95_ms":            {t.p95, "ms"},
			"allocs_per_op":             {float64(m1.Mallocs-m0.Mallocs) / ops, "count"},
			"alloc_bytes_per_op":        {float64(m1.TotalAlloc-m0.TotalAlloc) / ops, "B"},
			"stored_bytes_per_raw_byte": {stored / rawBytes, "B/B"},
			"answer_err_max":            {worstErr, "ratio"},
		}
		return res, nil
	}

	// Traced run: counts from the closed loop above, times from the
	// layer-peeled replays.
	tr := &tracer{w: w, st: st, e: e, o: o, ctx: ctx, list: measured, orc: orc}
	res.PerLayer = tr.countMetrics(before, after, ops, float64(bytesIn.Load()))
	res.FrameShares = tr.frameShares
	for _, class := range classes {
		res.PerLayer["bench."+class+"_p50_ms"] = metric{res.Latency[class].Median, "ms"}
	}
	res.PerLayer["bench.latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	res.PerLayer["series.pack_mb_s"] = metric{ratio(float64(st.fs.rawBytes())/1e6, st.packS), "MB/s"}
	if err := tr.peel(res); err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	res.Failed += tr.fails.n
	res.Failures = append(res.Failures, tr.fails.reasons...)
	return res, nil
}

// timing is what the measured phase's samples say about speed.
type timing struct {
	throughput, p50, p95 float64 // over the pooled quiet slices
	// One entry per slice, quiet or not, for anyone who wants the
	// distribution.
	sliceThroughput, sliceP50 []float64
}

// timeSlices cuts the measured ops, in completion order, into up to
// `windows` slices of equal count (fewer when a slice would hold under
// minSliceOps ops), keeps the one in quietOneIn with the highest
// throughput, and computes throughput, p50 and p95 over the kept slices'
// samples pooled. The box this runs on is a few cores of a shared host:
// for a fraction of a second to tens of seconds at a time a neighbour
// loads the memory system or takes a core, and the same binary runs
// 15-50 % slower. That noise only ever slows a slice down, and a slice of
// a sixth of a second is short enough to fall between the bursts, so the
// fastest tenth of the run is what repeats from run to run; a change to
// the code moves every slice, the kept ones included. (Measured on
// decode_analytics beside a process that burns one core half the time
// in bursts of 1-8 s: the spread of twelve runs' p50 was 31 % with 3 of
// 5 slices kept and 2 % with 10 of 100.) The mix is stratified in blocks
// of ten requests, so every slice holds the same share of each class.
//
// With segments > 1 the run is first cut into that many consecutive
// parts and the fastest tenth is kept within each: a workload whose
// latency climbs through the run is then sampled at the same points of
// the climb on every run, not wherever the quietest moment fell.
//
// The tail is p95, not p99: the kept tenth holds at least 480 samples,
// 24 beyond the p95 and too few beyond a p99. The whole run's highest
// supported percentile (TailQ, TailMs) and the p99 of the traced run's
// closed loop (bench.latency_p99_ms) are reported without a bound.
func timeSlices(samples []sample, segments int) timing {
	byDone := append([]sample(nil), samples...)
	sort.Slice(byDone, func(a, b int) bool { return byDone[a].at < byDone[b].at })
	n := min(windows, max(1, len(byDone)/minSliceOps))
	type slice struct {
		lat     []float64
		secs    float64
		opsPerS float64
		segment int
	}
	segments = max(1, min(segments, n/quietOneIn))
	slices := make([]slice, 0, n)
	var began time.Duration
	for w := 0; w < n; w++ {
		part := byDone[w*len(byDone)/n : (w+1)*len(byDone)/n]
		sl := slice{secs: (part[len(part)-1].at - began).Seconds(), segment: w * segments / n}
		began = part[len(part)-1].at
		for _, s := range part {
			sl.lat = append(sl.lat, s.ms)
		}
		sort.Float64s(sl.lat)
		sl.opsPerS = float64(len(sl.lat)) / sl.secs
		slices = append(slices, sl)
	}
	var t timing
	for _, sl := range slices {
		t.sliceThroughput = append(t.sliceThroughput, sl.opsPerS)
		t.sliceP50 = append(t.sliceP50, quantile(sl.lat, 0.5))
	}
	// Fastest first within each segment; then the leading tenth of each.
	sort.Slice(slices, func(a, b int) bool {
		if slices[a].segment != slices[b].segment {
			return slices[a].segment < slices[b].segment
		}
		return slices[a].opsPerS > slices[b].opsPerS
	})
	var pooled []float64
	var secs float64
	for i := 0; i < len(slices); {
		j := i
		for j < len(slices) && slices[j].segment == slices[i].segment {
			j++
		}
		for _, sl := range slices[i : i+max(1, (j-i)/quietOneIn)] {
			pooled = append(pooled, sl.lat...)
			secs += sl.secs
		}
		i = j
	}
	sort.Float64s(pooled)
	t.throughput = float64(len(pooled)) / secs
	t.p50, t.p95 = quantile(pooled, 0.5), quantile(pooled, 0.95)
	return t
}

// verifyDurable checks that every acknowledged frame is in the reopened
// store and within the codec's error of what was sent.
func verifyDurable(ctx context.Context, ref *reference, orc *oracle, acked []int) (lost []string, worst float64) {
	for _, label := range acked {
		r := &request{Class: classFrame}
		a, err := execReference(ctx, ref, r, label)
		var e float64
		if err == nil {
			e, err = orc.check(r, a)
		}
		if err != nil {
			lost = append(lost, fmt.Sprintf("acknowledged frame %d after reopen: %v", label, err))
			continue
		}
		if e > worst {
			worst = e
		}
	}
	return lost, worst
}

// countingTransport counts response body bytes on the client side —
// what the server's handlers sent — without touching the server.
type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
