package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/conformance"
	"repro/internal/api/httpapi"
	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

const (
	testGoblazSpec = "goblaz:block=4x4,float=float64,index=int16"
	testZfpSpec    = "zfp:rate=16"
)

// serveStore opens the store file behind a fresh httptest server — one
// shard replica — and registers cleanup on t.
func serveStore(t testing.TB, path string) *httptest.Server {
	t.Helper()
	l, err := api.OpenLocal(path, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := httptest.NewServer(httpapi.New(l, nil, httpapi.Options{}))
	t.Cleanup(srv.Close)
	return srv
}

// clusterOf serves every shard of the manifest from `replicas` identical
// httptest servers each and opens a coordinator over the resulting
// topology. Probes are disabled (tests drive ProbeNow directly) and the
// cooldown is long, so a replica a test kills stays demoted for the
// test's remainder.
func clusterOf(t testing.TB, manifestPath string, replicas int) (*Coordinator, [][]*httptest.Server) {
	t.Helper()
	man, err := shard.LoadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(manifestPath)
	var servers [][]*httptest.Server
	var urls [][]string
	for _, sh := range man.Shards {
		var srvs []*httptest.Server
		var reps []string
		for r := 0; r < replicas; r++ {
			srv := serveStore(t, filepath.Join(dir, sh.Path))
			srvs = append(srvs, srv)
			reps = append(reps, srv.URL)
		}
		servers = append(servers, srvs)
		urls = append(urls, reps)
	}
	return coordinatorOver(t, urls), servers
}

// coordinatorOver opens a coordinator over shards s0, s1, … with the
// given replica URLs each, probes and cooldowns an hour long.
func coordinatorOver(t testing.TB, replicas [][]string) *Coordinator {
	t.Helper()
	topo := &Topology{
		Version: TopologyVersion,
		Probe:   ProbeConfig{Interval: Duration(time.Hour), Cooldown: Duration(time.Hour)},
		Client:  ClientConfig{Retries: -1},
	}
	for s, reps := range replicas {
		topo.Shards = append(topo.Shards, ShardSpec{Name: fmt.Sprintf("s%d", s), Replicas: reps})
	}
	co, err := New(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// TestCoordinatorConformance runs the full v1 Backend contract suite
// against a coordinator scatter-gathering real HTTP shard servers, for
// uniform and mixed-codec fixtures at several shard counts — the same
// suite Local, Client, and Sharded pass.
func TestCoordinatorConformance(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for _, nShards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("mixed=%v/shards=%d", mixed, nShards), func(t *testing.T) {
				fx := conformance.NewFixture(t)
				if mixed {
					fx = conformance.NewMixedFixture(t)
				}
				conformance.Run(t, fx, func(t *testing.T) api.Backend {
					man := fx.BuildManifest(t, t.TempDir(), nShards)
					co, _ := clusterOf(t, man, 1)
					return co
				})
			})
		}
	}
}

// randomFrames builds n deterministic pseudo-random rows×cols frames
// (a smooth random walk, so every codec compresses sanely).
func randomFrames(rng *rand.Rand, n, rows, cols int) []*tensor.Tensor {
	frames := make([]*tensor.Tensor, n)
	for k := range frames {
		f := tensor.New(rows, cols)
		v := rng.NormFloat64()
		for i := range f.Data() {
			v += 0.1 * rng.NormFloat64()
			f.Data()[i] = v
		}
		frames[k] = f
	}
	return frames
}

func mustCoder(t testing.TB, spec string) codec.Coder {
	t.Helper()
	coder, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	return coder
}

// buildDataset writes frames as an nShards dataset under dir and
// returns the manifest path.
func buildDataset(t testing.TB, dir, spec string, frames []*tensor.Tensor, nShards int) string {
	t.Helper()
	labels := make([]int, len(frames))
	for i := range labels {
		labels[i] = i
	}
	path := filepath.Join(dir, "ds.json")
	_, err := shard.WriteDatasetAssigned(path, mustCoder(t, spec), nil, labels, nShards, 0,
		func(i int) (*tensor.Tensor, error) { return frames[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// openSingle opens the same frames as one store with a fresh engine —
// the differential tests' ground truth.
func openSingle(t testing.TB, spec string, frames []*tensor.Tensor) *query.Engine {
	t.Helper()
	dir := t.TempDir()
	man, err := shard.LoadManifest(buildDataset(t, dir, spec, frames, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(filepath.Join(dir, man.Shards[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return query.New(r, query.Options{})
}

// requestBattery is the remote-vs-local differential's request set:
// every aggregate, every metric (vs-reference and pairwise), reductions
// on both execution paths, region and point reads, boundary-crossing
// selections, and — when the first shard boundary falls inside the
// frame range — a pairwise metric straddling it, which no single shard
// can answer alone.
func requestBattery(n, boundary int) []*query.Request {
	all := []string{
		query.AggMean, query.AggVariance, query.AggStdDev,
		query.AggMin, query.AggMax, query.AggL2Norm,
	}
	ref := n / 2
	from, to := 1, n-1
	pairTo := 2
	reqs := []*query.Request{
		{Aggregates: all},
		{Reduce: all},
		{Reduce: []string{query.AggMean, query.AggL2Norm}},
		{Aggregates: []string{query.AggMean}, Reduce: []string{query.AggVariance, query.AggStdDev}},
		{Select: query.Selector{From: &from, To: &to}, Aggregates: []string{query.AggMean}, Reduce: all},
		{Select: query.Selector{Labels: "?"}, Aggregates: all},
		{Region: &query.RegionRequest{Offset: []int{3, 5}, Shape: []int{7, 6}}},
		{Point: []int{10, 12}},
		{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricPSNR, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricDot, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref}, Reduce: []string{query.AggMean}},
		{Select: query.Selector{To: &pairTo}, Metric: &query.MetricRequest{Kind: query.MetricDot}},
	}
	if boundary >= 1 && boundary+1 <= n {
		bf, bt := boundary-1, boundary+1
		reqs = append(reqs, &query.Request{
			Select: query.Selector{From: &bf, To: &bt},
			Metric: &query.MetricRequest{Kind: query.MetricMSE},
		})
	}
	return reqs
}

// approxEq compares within 1e-9 relative tolerance, treating equal
// infinities and NaNs as matches.
func approxEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// compareResults asserts the cluster result equals the single-store one
// within 1e-9, with the same compressed-space flags on the result, on
// every frame and on the pair.
func compareResults(t *testing.T, want, got *query.Result) {
	t.Helper()
	if got.Spec != want.Spec {
		t.Errorf("spec %q != %q", got.Spec, want.Spec)
	}
	if len(got.Specs) != len(want.Specs) {
		t.Errorf("specs %v != %v", got.Specs, want.Specs)
	}
	if got.ExecutedInCompressedSpace != want.ExecutedInCompressedSpace {
		t.Errorf("compressed-space flag %v != %v", got.ExecutedInCompressedSpace, want.ExecutedInCompressedSpace)
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("got %d frame results, want %d", len(got.Frames), len(want.Frames))
	}
	for i := range want.Frames {
		w, g := want.Frames[i], got.Frames[i]
		if g.Index != w.Index || g.Label != w.Label {
			t.Errorf("frame %d is (index %d, label %d), want (%d, %d)", i, g.Index, g.Label, w.Index, w.Label)
		}
		if g.ExecutedInCompressedSpace != w.ExecutedInCompressedSpace {
			t.Errorf("frame %d compressed-space flag %v != %v", i, g.ExecutedInCompressedSpace, w.ExecutedInCompressedSpace)
		}
		if len(g.Aggregates) != len(w.Aggregates) {
			t.Errorf("frame %d aggregates %v != %v", i, g.Aggregates, w.Aggregates)
		}
		for kind, wv := range w.Aggregates {
			if !approxEq(float64(g.Aggregates[kind]), float64(wv)) {
				t.Errorf("frame %d %s = %v, want %v", i, kind, g.Aggregates[kind], wv)
			}
		}
		if (g.Metric == nil) != (w.Metric == nil) {
			t.Errorf("frame %d metric presence mismatch", i)
		} else if w.Metric != nil && !approxEq(float64(*g.Metric), float64(*w.Metric)) {
			t.Errorf("frame %d metric = %v, want %v", i, *g.Metric, *w.Metric)
		}
		if (g.Region == nil) != (w.Region == nil) {
			t.Errorf("frame %d region presence mismatch", i)
		} else if w.Region != nil {
			if len(g.Region.Values) != len(w.Region.Values) {
				t.Fatalf("frame %d region size %d != %d", i, len(g.Region.Values), len(w.Region.Values))
			}
			for j := range w.Region.Values {
				if !approxEq(g.Region.Values[j], w.Region.Values[j]) {
					t.Errorf("frame %d region[%d] = %g, want %g", i, j, g.Region.Values[j], w.Region.Values[j])
				}
			}
		}
		if (g.Point == nil) != (w.Point == nil) {
			t.Errorf("frame %d point presence mismatch", i)
		} else if w.Point != nil && !approxEq(float64(*g.Point), float64(*w.Point)) {
			t.Errorf("frame %d point = %v, want %v", i, *g.Point, *w.Point)
		}
	}
	if (got.Pair == nil) != (want.Pair == nil) {
		t.Errorf("pair presence mismatch")
	} else if want.Pair != nil {
		if got.Pair.A != want.Pair.A || got.Pair.B != want.Pair.B || got.Pair.Kind != want.Pair.Kind {
			t.Errorf("pair %+v, want %+v", got.Pair, want.Pair)
		}
		if !approxEq(float64(got.Pair.Value), float64(want.Pair.Value)) {
			t.Errorf("pair value %v, want %v", got.Pair.Value, want.Pair.Value)
		}
		if got.Pair.ExecutedInCompressedSpace != want.Pair.ExecutedInCompressedSpace {
			t.Errorf("pair compressed-space flag %v != %v", got.Pair.ExecutedInCompressedSpace, want.Pair.ExecutedInCompressedSpace)
		}
	}
	if (got.Reduced == nil) != (want.Reduced == nil) {
		t.Errorf("reduced presence mismatch")
	} else if want.Reduced != nil {
		if got.Reduced.N != want.Reduced.N || got.Reduced.Frames != want.Reduced.Frames {
			t.Errorf("reduced state N=%d/frames=%d, want N=%d/frames=%d",
				got.Reduced.N, got.Reduced.Frames, want.Reduced.N, want.Reduced.Frames)
		}
		if len(got.Reduced.Values) != len(want.Reduced.Values) {
			t.Errorf("reduced values %v != %v", got.Reduced.Values, want.Reduced.Values)
		}
		for kind, wv := range want.Reduced.Values {
			if !approxEq(float64(got.Reduced.Values[kind]), float64(wv)) {
				t.Errorf("reduced %s = %v, want %v", kind, got.Reduced.Values[kind], wv)
			}
		}
	}
}

// TestCoordinatorMatchesSingleStore is the remote differential: for
// both codecs and every shard count 1..4, a coordinator over real HTTP
// shard servers and a local sharded dataset both answer the whole
// request battery identically (within 1e-9) to the same frames in one
// store.
func TestCoordinatorMatchesSingleStore(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	for _, spec := range []string{testGoblazSpec, testZfpSpec} {
		for shards := 1; shards <= 4; shards++ {
			n := 8 + rng.Intn(5)
			frames := randomFrames(rng, n, 16, 16)
			eng := openSingle(t, spec, frames)

			manifest := buildDataset(t, t.TempDir(), spec, frames, shards)
			man, err := shard.LoadManifest(manifest)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := shard.Open(manifest, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			co, _ := clusterOf(t, manifest, 1)

			for ri, req := range requestBattery(n, man.Shards[0].Frames) {
				want, err := eng.Run(ctx, req)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d single: %v", spec, shards, ri, err)
				}
				reqCopy := *req
				local, err := ds.Query(ctx, &reqCopy)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d sharded: %v", spec, shards, ri, err)
				}
				reqCopy = *req
				remote, err := co.Query(ctx, &reqCopy)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d remote: %v", spec, shards, ri, err)
				}
				t.Run("", func(t *testing.T) {
					compareResults(t, want, local)
					compareResults(t, want, remote)
				})
			}
			ds.Close()
		}
	}
}

// TestCoordinatorFailoverMidBattery kills a replica halfway through the
// differential battery: every query must keep succeeding — and keep
// matching the single store — through failover to the sibling replica,
// with the failover counter and the endpoint health gauge recording it.
func TestCoordinatorFailoverMidBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	n := 10
	frames := randomFrames(rng, n, 16, 16)
	eng := openSingle(t, testGoblazSpec, frames)

	manifest := buildDataset(t, t.TempDir(), testGoblazSpec, frames, 3)
	man, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	co, servers := clusterOf(t, manifest, 2)

	reqs := requestBattery(n, man.Shards[0].Frames)
	run := func(phase string, reqs []*query.Request) {
		for ri, req := range reqs {
			want, err := eng.Run(ctx, req)
			if err != nil {
				t.Fatalf("%s req=%d single: %v", phase, ri, err)
			}
			reqCopy := *req
			got, err := co.Query(ctx, &reqCopy)
			if err != nil {
				t.Fatalf("%s req=%d remote: %v", phase, ri, err)
			}
			compareResults(t, want, got)
		}
	}

	half := len(reqs) / 2
	run("healthy", reqs[:half])
	before := clusterFailovers.Value()

	// Kill shard 0's first replica: scatters to shard 0 route to it
	// first (affinity 0), so the very next battery run must fail over.
	servers[0][0].Close()
	run("degraded", reqs)

	if after := clusterFailovers.Value(); after <= before {
		t.Errorf("failover counter did not move: %d -> %d", before, after)
	}
	ep := co.groups[0].endpoints[0]
	if ep.rank(time.Now()) == 0 {
		t.Error("killed replica still reports up")
	}
	if v := clusterEndpointUp.With(ep.url).Value(); v != 0 {
		t.Errorf("killed replica health gauge = %d, want 0", v)
	}
	if live := co.groups[0].endpoints[1].rank(time.Now()); live != 0 {
		t.Errorf("surviving replica has rank %d, want 0 (up)", live)
	}
}

// TestProbeCooldown drives one shard's replicas through a failed probe
// and a recovery, with deterministic probes against servers whose
// readiness toggles: a failed endpoint is ordered after its healthy
// sibling until its cooldown expires, then before a sibling still
// cooling down, and a successful probe puts it first again.
func TestProbeCooldown(t *testing.T) {
	fx := conformance.NewFixture(t)
	storePath := fx.BuildStore(t, t.TempDir())
	l, err := api.OpenLocal(storePath, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var healthy [3]atomic.Bool
	var urls []string
	for i := range healthy {
		healthy[i].Store(true)
		srv := httptest.NewServer(httpapi.New(l, nil, httpapi.Options{
			Ready: func() bool { return healthy[i].Load() },
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}

	const cooldown = time.Minute
	topo := &Topology{
		Version: TopologyVersion,
		Shards:  []ShardSpec{{Name: "s0", Replicas: urls}},
		Probe:   ProbeConfig{Interval: Duration(time.Hour), Cooldown: Duration(cooldown)},
		Client:  ClientConfig{Retries: -1},
	}
	co, err := New(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	g := co.groups[0]
	a, b, c := g.endpoints[0], g.endpoints[1], g.endpoints[2]
	// inOrder reports whether a call with the given affinity at time
	// now tries the endpoints in the order want.
	inOrder := func(affinity uint64, now time.Time, want ...*endpoint) bool {
		return slices.Equal(g.order(affinity, now), want)
	}

	co.ProbeNow()
	if !inOrder(2, time.Now(), c, a, b) {
		t.Fatal("healthy replicas are not tried in affinity order")
	}
	okBefore := clusterProbes.With("ok").Value()
	failBefore := clusterProbes.With("fail").Value()

	healthy[0].Store(false)
	failedAt := time.Now()
	co.ProbeNow()
	if v := clusterEndpointUp.With(a.url).Value(); v != 0 {
		t.Errorf("failed endpoint gauge = %d, want 0", v)
	}
	c.markFailure(3 * cooldown) // still cooling when a's cooldown is over
	if !inOrder(2, failedAt, b, c, a) {
		t.Error("a cooling endpoint is not tried after its healthy sibling")
	}
	if !inOrder(2, failedAt.Add(2*cooldown), b, a, c) {
		t.Error("a cooled-down endpoint is not tried after its healthy sibling and before one still cooling down")
	}

	healthy[0].Store(true)
	co.ProbeNow()
	if !inOrder(0, failedAt, a, b, c) {
		t.Error("a successful probe did not put the endpoint first again")
	}
	if v := clusterEndpointUp.With(a.url).Value(); v != 1 {
		t.Errorf("recovered endpoint gauge = %d, want 1", v)
	}
	if clusterProbes.With("ok").Value() <= okBefore || clusterProbes.With("fail").Value() <= failBefore {
		t.Error("probe outcome counters did not move")
	}
}

// TestCoordinatorPayloadProxy checks Payload: the coordinator serves
// each frame's raw compressed bytes, identical to the local sharded
// backend over the same files.
func TestCoordinatorPayloadProxy(t *testing.T) {
	fx := conformance.NewFixture(t)
	manifest := fx.BuildManifest(t, t.TempDir(), 2)
	co, _ := clusterOf(t, manifest, 1)
	local, err := api.OpenSharded(manifest, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	ctx := context.Background()
	for label := 0; label < conformance.FrameCount; label++ {
		want, err := local.Payload(ctx, label)
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.Payload(ctx, label)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d payload differs: %d vs %d bytes", label, len(got), len(want))
		}
	}
	if _, err := co.Payload(ctx, 99); api.CodeOf(err) != api.CodeNotFound {
		t.Errorf("payload of missing frame: %v, want not_found", err)
	}
}

// TestCoordinatorPayloadRoute serves a coordinator through httpapi: its
// payload route streams the coordinator's own PayloadReader, so a full
// GET, a Range and a revalidation answer as they do on a store mount.
func TestCoordinatorPayloadRoute(t *testing.T) {
	fx := conformance.NewFixture(t)
	manifest := fx.BuildManifest(t, t.TempDir(), 2)
	co, _ := clusterOf(t, manifest, 1)
	local, err := api.OpenSharded(manifest, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	srv := httptest.NewServer(httpapi.New(co, nil, httpapi.Options{}))
	defer srv.Close()
	get := func(label int, header, value string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("GET", srv.URL+"/v1/frames/"+strconv.Itoa(label)+"/payload", nil)
		if header != "" {
			req.Header.Set(header, value)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	for label := 0; label < conformance.FrameCount; label++ {
		want, err := local.Payload(context.Background(), label)
		if err != nil {
			t.Fatal(err)
		}
		resp, full := get(label, "", "")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(full, want) {
			t.Fatalf("frame %d: GET = %d with %d bytes, want 200 with the stored %d", label, resp.StatusCode, len(full), len(want))
		}
		resp, part := get(label, "Range", "bytes=3-9")
		if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(part, want[3:10]) {
			t.Errorf("frame %d: Range = %d with %q, want 206 with bytes 3-9", label, resp.StatusCode, part)
		}
		if got, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes 3-9/%d", len(want)); got != want {
			t.Errorf("frame %d: Content-Range = %q, want %q", label, got, want)
		}
		etag := resp.Header.Get("ETag")
		if resp, body := get(label, "If-None-Match", etag); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("frame %d: If-None-Match %s = %d with %d bytes, want bare 304", label, etag, resp.StatusCode, len(body))
		}
	}
}

// TestDiscoveryRejectsInconsistentShards covers the two startup
// invariants: shard servers must agree on the default codec spec, and
// no label may appear on two shards.
func TestDiscoveryRejectsInconsistentShards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frames := randomFrames(rng, 4, 8, 8)

	dirA := t.TempDir()
	manA, err := shard.LoadManifest(buildDataset(t, dirA, testGoblazSpec, frames, 1))
	if err != nil {
		t.Fatal(err)
	}
	srvA := serveStore(t, filepath.Join(dirA, manA.Shards[0].Path))

	dirB := t.TempDir()
	manB, err := shard.LoadManifest(buildDataset(t, dirB, testZfpSpec, frames, 1))
	if err != nil {
		t.Fatal(err)
	}
	srvB := serveStore(t, filepath.Join(dirB, manB.Shards[0].Path))

	// Both rejections are discovery's own verdict (internal, naming the
	// offending shard) — not a dial or transport failure that happens to
	// be non-nil.
	for _, tc := range []struct {
		why     string
		replica string // shard b's; shard a always serves store A
	}{
		{"shards with different default specs", srvB.URL},
		{"two shards serving the same labels", srvA.URL},
	} {
		topo := &Topology{
			Version: TopologyVersion,
			Shards: []ShardSpec{
				{Name: "a", Replicas: []string{srvA.URL}},
				{Name: "b", Replicas: []string{tc.replica}},
			},
		}
		_, err := New(topo, Options{})
		if api.CodeOf(err) != api.CodeInternal || !strings.Contains(err.Error(), "shard b") {
			t.Errorf("%s must not open: got %v, want %s naming shard b", tc.why, err, api.CodeInternal)
		}
	}
}

// sameBits reports whether two answers are the same float64, bit for bit.
func sameBits(a, b query.Float) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// payloadsFor is how many payloads the coordinator must fetch to answer
// req, whose single-store answer is want: one per coupled frame when
// they span shards, none when one shard holds them all.
func payloadsFor(co *Coordinator, req *query.Request, want *query.Result) uint64 {
	if req.Metric == nil {
		return 0
	}
	var coupled []int
	for _, fr := range want.Frames {
		coupled = append(coupled, fr.Index)
	}
	if req.Metric.Against != nil {
		ref, _ := co.inv.IndexOf(*req.Metric.Against)
		coupled = append(coupled, ref)
	}
	for _, g := range coupled {
		if co.scatter.shardOf(g) != co.scatter.shardOf(coupled[0]) {
			return uint64(len(coupled))
		}
	}
	return 0
}

// TestCrossShardMetricsBitIdentical: a metric request coupling frames on
// different shards runs whole on the coordinator, on a query engine over
// the frames' fetched payloads. Every metric and pair value therefore
// equals the single store's to the bit, with the same flags: compressed
// space for a same-spec goblaz coupling, the decode fallback for a
// cross-codec pair and for a zfp pair. So does the request's reduction,
// folded one frame at a time as on one store; random frames make a
// per-shard fold visible. Such a request fetches one payload per coupled
// frame; one a shard answers alone fetches none.
func TestCrossShardMetricsBitIdentical(t *testing.T) {
	ctx := context.Background()
	check := func(name string, eng *query.Engine, co *Coordinator, req *query.Request) *query.Result {
		t.Helper()
		want, err := eng.Run(ctx, req)
		if err != nil {
			t.Fatalf("%s single: %v", name, err)
		}
		before := clusterRemoteFrames.Value()
		reqCopy := *req
		got, err := co.Query(ctx, &reqCopy)
		if err != nil {
			t.Fatalf("%s remote: %v", name, err)
		}
		if fetched, want := clusterRemoteFrames.Value()-before, payloadsFor(co, req, want); fetched != want {
			t.Errorf("%s fetched %d payloads, want %d", name, fetched, want)
		}
		compareResults(t, want, got)
		for i, w := range want.Frames {
			if w.Metric != nil && got.Frames[i].Metric != nil && !sameBits(*got.Frames[i].Metric, *w.Metric) {
				t.Errorf("%s frame %d metric %v, single store %v", name, i, *got.Frames[i].Metric, *w.Metric)
			}
		}
		if want.Pair != nil && got.Pair != nil && !sameBits(got.Pair.Value, want.Pair.Value) {
			t.Errorf("%s pair %v, single store %v", name, got.Pair.Value, want.Pair.Value)
		}
		if w, g := want.Reduced, got.Reduced; req.Metric != nil && w != nil && g != nil {
			if !sameBits(g.Sum, w.Sum) || !sameBits(g.SumSq, w.SumSq) {
				t.Errorf("%s reduced sums (%v, %v), single store (%v, %v)", name, g.Sum, g.SumSq, w.Sum, w.SumSq)
			}
			for kind, wv := range w.Values {
				if !sameBits(g.Values[kind], wv) {
					t.Errorf("%s reduced %s %v, single store %v", name, kind, g.Values[kind], wv)
				}
			}
		}
		return got
	}

	// Nine random frames over two shards, mse against the last one with a
	// mean reduction: a per-shard fold lands an ulp off this store's.
	frames := randomFrames(rand.New(rand.NewSource(6)), 9, 16, 16)
	last := len(frames) - 1
	co, _ := clusterOf(t, buildDataset(t, t.TempDir(), testGoblazSpec, frames, 2), 1)
	check("random/mse+reduce", openSingle(t, testGoblazSpec, frames), co, &query.Request{
		Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &last},
		Reduce: []string{query.AggMean},
	})

	evenRef := 2
	for _, fx := range []*conformance.Fixture{conformance.NewFixture(t), conformance.NewMixedFixture(t)} {
		r, err := store.Open(fx.BuildStore(t, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		eng := query.New(r, query.Options{})
		for _, shards := range []int{2, 3} {
			manifest := fx.BuildManifest(t, t.TempDir(), shards)
			man, err := shard.LoadManifest(manifest)
			if err != nil {
				t.Fatal(err)
			}
			co, _ := clusterOf(t, manifest, 1)

			// Labels 1 and 3 sit on different shards at both counts and are
			// zfp frames in the mixed fixture; the battery's last request
			// pairs the frames either side of the first boundary, one of
			// each codec there.
			oddPair := &query.Request{
				Select: query.Selector{Labels: "[13]"},
				Metric: &query.MetricRequest{Kind: query.MetricPSNR},
			}
			reqs := append(requestBattery(conformance.FrameCount, man.Shards[0].Frames), oddPair,
				&query.Request{Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &evenRef}})
			boundaryPair := reqs[len(reqs)-3]
			for ri, req := range reqs {
				name := fmt.Sprintf("mixed=%v/shards=%d/req=%d", fx.Mixed(), shards, ri)
				got := check(name, eng, co, req)
				if (req == oddPair || req == boundaryPair) && got.Pair.ExecutedInCompressedSpace == fx.Mixed() {
					t.Errorf("%s cross-shard pair compressed-space = %v, want %v",
						name, got.Pair.ExecutedInCompressedSpace, !fx.Mixed())
				}
			}
		}
	}
}

// TestCrossShardFallbackDecodesReferenceOnce: k zfp frames against a zfp
// reference on another shard fall back to decoding, and the coordinator
// decompresses k + 1 frames — the reference once, shared by every frame
// task, as one store's engine does — not the reference again per frame.
func TestCrossShardFallbackDecodesReferenceOnce(t *testing.T) {
	ctx := context.Background()
	frames := randomFrames(rand.New(rand.NewSource(5)), 6, 16, 16)
	co, _ := clusterOf(t, buildDataset(t, t.TempDir(), testZfpSpec, frames, 2), 1)
	from, to, ref := 0, 3, len(frames)-1 // shard 0's frames against shard 1's last
	req := &query.Request{
		Select: query.Selector{From: &from, To: &to},
		Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref},
	}
	want, err := openSingle(t, testZfpSpec, frames).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	decompressions := func() float64 {
		labels := "{op=decompress,spec=" + mustCoder(t, testZfpSpec).Spec() + "}"
		return obs.Default.Snapshot().Flatten()["goblaz_codec_op_total"+labels]
	}
	before := decompressions()
	reqCopy := *req
	got, err := co.Query(ctx, &reqCopy)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, want, got)
	if n, k := decompressions()-before, to-from; n != float64(k+1) {
		t.Errorf("coordinator decompressed %v frames for %d frames and a reference, want %d", n, k, k+1)
	}
}

// swapServer is a shard replica whose store can be replaced behind an
// open coordinator's back.
type swapServer struct {
	*httptest.Server
	h atomic.Pointer[http.Handler]
}

func serveSwappable(t testing.TB, path string) *swapServer {
	t.Helper()
	s := &swapServer{}
	s.serve(t, path)
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.h.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(s.Close)
	return s
}

// serve switches the replica to the store file at path.
func (s *swapServer) serve(t testing.TB, path string) {
	t.Helper()
	l, err := api.OpenLocal(path, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	h := httpapi.New(l, nil, httpapi.Options{})
	s.h.Store(&h)
}

// TestCrossShardMetricStaleInventory replaces one shard's store, behind
// an open coordinator's back, with different frames under the same
// labels. Its payloads no longer carry the CRCs discovery recorded, so
// no value may be computed from them: with a current sibling replica a
// cross-shard metric fails over and answers as before; with none, the
// metric and Payload answer unavailable, naming the label and both CRCs.
func TestCrossShardMetricStaleInventory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	n := 8
	current, changed := randomFrames(rng, n, 16, 16), randomFrames(rng, n, 16, 16)
	eng := openSingle(t, testGoblazSpec, current)
	shardPaths := func(frames []*tensor.Tensor) []string {
		dir := t.TempDir()
		man, err := shard.LoadManifest(buildDataset(t, dir, testGoblazSpec, frames, 2))
		if err != nil {
			t.Fatal(err)
		}
		return []string{filepath.Join(dir, man.Shards[0].Path), filepath.Join(dir, man.Shards[1].Path)}
	}
	cur, stale := shardPaths(current), shardPaths(changed)
	r, err := store.Open(stale[0])
	if err != nil {
		t.Fatal(err)
	}
	staleCRC := r.Info(0).CRC32
	r.Close()

	label, ref := 0, n-1 // shard 0 against shard 1
	req := query.Request{
		Select: query.Selector{Labels: strconv.Itoa(label)},
		Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref},
	}
	want, err := eng.Run(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}

	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			var reps []*swapServer
			var urls []string
			for i := 0; i < replicas; i++ {
				reps = append(reps, serveSwappable(t, cur[0]))
				urls = append(urls, reps[i].URL)
			}
			co := coordinatorOver(t, [][]string{urls, {serveStore(t, cur[1]).URL}})
			at, _ := co.inv.IndexOf(label)
			recorded := co.inv.Info(at).CRC32

			// The replica the label's calls try first goes stale.
			first := int(affinity(label) % uint64(replicas))
			reps[first].serve(t, stale[0])
			failovers := clusterFailovers.Value()
			reqCopy := req
			got, err := co.Query(ctx, &reqCopy)

			if replicas > 1 {
				if err != nil {
					t.Fatalf("with a current sibling: %v", err)
				}
				compareResults(t, want, got)
				if !sameBits(*got.Frames[0].Metric, *want.Frames[0].Metric) {
					t.Errorf("metric %v, single store %v", *got.Frames[0].Metric, *want.Frames[0].Metric)
				}
				if clusterFailovers.Value() <= failovers {
					t.Error("failover counter did not move")
				}
				if co.groups[0].endpoints[first].rank(time.Now()) == 0 {
					t.Error("stale replica still reports up")
				}
				return
			}
			payload, perr := co.Payload(ctx, label)
			for what, e := range map[string]error{"metric": err, "payload": perr} {
				if api.CodeOf(e) != api.CodeUnavailable {
					t.Errorf("%s with no current replica: %v, want %s", what, e, api.CodeUnavailable)
					continue
				}
				for _, part := range []string{
					fmt.Sprintf("frame %d payload", label), fmt.Sprintf("%08x", staleCRC), fmt.Sprintf("%08x", recorded),
				} {
					if !strings.Contains(e.Error(), part) {
						t.Errorf("%s error %q does not name %q", what, e, part)
					}
				}
			}
			if got != nil || payload != nil {
				t.Errorf("stale replica answered: result %v, payload %d bytes", got, len(payload))
			}
		})
	}
}

// BenchmarkCrossShardMetric times one mse against a reference on the
// other shard, through a coordinator over two shard servers of 32² int8
// frames: two payload fetches, two view decodes and the compressed-space
// kernel.
func BenchmarkCrossShardMetric(b *testing.B) {
	const spec = "goblaz:block=8x8,float=float32,index=int8"
	frames := randomFrames(rand.New(rand.NewSource(1)), 4, 32, 32)
	co, _ := clusterOf(b, buildDataset(b, b.TempDir(), spec, frames, 2), 1)
	ref := len(frames) - 1
	req := query.Request{
		Select: query.Selector{Labels: "0"},
		Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := req
		res, err := co.Query(ctx, &r)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ExecutedInCompressedSpace {
			b.Fatal("cross-shard mse left compressed space")
		}
	}
}
