package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/api/httpapi"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

// packInputs writes n raw frame files and returns their paths plus the
// frame tensors.
func packInputs(t *testing.T, dir string, n, rows, cols int) ([]string, []*tensor.Tensor) {
	t.Helper()
	paths := make([]string, n)
	frames := make([]*tensor.Tensor, n)
	for k := 0; k < n; k++ {
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = math.Sin(float64(i)/5) + float64(k)*0.5
		}
		paths[k] = filepath.Join(dir, "frame"+string(rune('a'+k))+".f64")
		writeRaw(t, paths[k], data)
		frames[k] = tensor.FromSlice(data, rows, cols)
	}
	return paths, frames
}

func TestPackUnpackRoundTripEveryCodec(t *testing.T) {
	const rows, cols, n = 24, 16, 3
	for _, name := range codec.List() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			inputs, frames := packInputs(t, dir, n, rows, cols)
			out := filepath.Join(dir, "series.gbz")

			args := []string{"-shape", "24,16", "-codec", name, "-workers", "2", out}
			if err := runPack(append(args, inputs...)); err != nil {
				t.Fatalf("pack: %v", err)
			}
			if err := runInspect([]string{out}); err != nil {
				t.Fatalf("inspect: %v", err)
			}
			prefix := filepath.Join(dir, "back")
			if err := runUnpack([]string{out, prefix}); err != nil {
				t.Fatalf("unpack: %v", err)
			}

			cd, err := codec.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				got, err := readTensor(prefix+string(rune('0'+k))+".f64", []int{rows, cols})
				if err != nil {
					t.Fatal(err)
				}
				// Bit-exact against the direct compress→decompress path:
				// the store must add no loss beyond the codec's own.
				c, err := cd.Compress(frames[k])
				if err != nil {
					t.Fatal(err)
				}
				want, err := cd.Decompress(c)
				if err != nil {
					t.Fatal(err)
				}
				if got.MaxAbsDiff(want) != 0 {
					t.Errorf("frame %d: unpack differs from direct codec round trip", k)
				}
			}
		})
	}
}

func TestUnpackSingleFrame(t *testing.T) {
	dir := t.TempDir()
	inputs, _ := packInputs(t, dir, 3, 8, 8)
	out := filepath.Join(dir, "s.gbz")
	if err := runPack(append([]string{"-shape", "8,8", out}, inputs...)); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "one")
	if err := runUnpack([]string{"-frame", "1", out, prefix}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prefix + "1.f64"); err != nil {
		t.Errorf("frame 1 not unpacked: %v", err)
	}
	if _, err := os.Stat(prefix + "0.f64"); err == nil {
		t.Error("-frame 1 should not unpack frame 0")
	}
	if err := runUnpack([]string{"-frame", "9", out, prefix}); err == nil {
		t.Error("unknown label should fail")
	}
}

func TestPackFlagCodecWithPruning(t *testing.T) {
	// The flag-driven path must embed a spec that round-trips keep=: a
	// store packed with -keep 0.5 has to decode with its own header.
	dir := t.TempDir()
	inputs, _ := packInputs(t, dir, 2, 8, 8)
	out := filepath.Join(dir, "pruned.gbz")
	args := []string{"-shape", "8,8", "-block", "4,4", "-float", "float64", "-keep", "0.5", out}
	if err := runPack(append(args, inputs...)); err != nil {
		t.Fatalf("pack: %v", err)
	}
	r, err := store.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if want := "keep=0.5"; !strings.Contains(r.Spec(), want) {
		t.Errorf("spec %q should contain %q", r.Spec(), want)
	}
	if i, ok := r.IndexOf(1); !ok {
		t.Error("store packed with pruning lost label 1")
	} else if _, err := r.Decompress(i); err != nil {
		t.Errorf("store packed with pruning does not decode itself: %v", err)
	}
}

func TestPackFailureLeavesNoPartialStore(t *testing.T) {
	// A mid-pack error must not clobber an existing store at the output
	// path or leave a truncated temp file behind.
	dir := t.TempDir()
	inputs, _ := packInputs(t, dir, 2, 8, 8)
	out := filepath.Join(dir, "keep.gbz")
	if err := runPack(append([]string{"-shape", "8,8", out}, inputs...)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]string{"-shape", "8,8", out, inputs[0]}, filepath.Join(dir, "missing.f64"))
	if err := runPack(bad); err == nil {
		t.Fatal("pack with a missing frame should fail")
	}
	after, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("failed pack clobbered the existing store")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".goblaz-pack-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// packShardedDataset packs n 16×16 frames as a shards-way dataset and
// returns the manifest path plus the paths of a parallel single-store
// pack of the same frames.
func packShardedDataset(t *testing.T, n, shards int) (manifest, single string) {
	t.Helper()
	dir := t.TempDir()
	inputs, _ := packInputs(t, dir, n, 16, 16)
	manifest = filepath.Join(dir, "ds.json")
	args := []string{"-shape", "16,16", "-codec", "goblaz:block=4x4,float=float64,index=int16"}
	if err := runPack(append(append(append([]string{}, args...), "-shards", fmt.Sprint(shards), manifest), inputs...)); err != nil {
		t.Fatalf("pack -shards: %v", err)
	}
	single = filepath.Join(dir, "single.gbz")
	if err := runPack(append(append(append([]string{}, args...), single), inputs...)); err != nil {
		t.Fatalf("pack: %v", err)
	}
	return manifest, single
}

func TestPackShardedMatchesSingleStoreCLI(t *testing.T) {
	// `goblaz query` must answer byte-identically from a manifest and
	// from a single store of the same frames — the CLI-level face of
	// the shard-vs-single property.
	manifest, single := packShardedDataset(t, 5, 3)
	man, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 3 || man.Len() != 5 {
		t.Fatalf("manifest %+v", man)
	}
	for _, sh := range man.Shards {
		if _, err := os.Stat(filepath.Join(filepath.Dir(manifest), sh.Path)); err != nil {
			t.Fatalf("shard file missing: %v", err)
		}
	}

	args := []string{
		"-aggs", "mean,variance,stddev,min,max,l2norm",
		"-reduce", "mean,variance,min,max",
		"-metric", "mse", "-against", "0",
		"-region", "1,1:3,3", "-point", "2,2",
	}
	viaManifest, err := captureStdout(t, func() error { return runQuery(append(args, manifest)) })
	if err != nil {
		t.Fatalf("query manifest: %v", err)
	}
	viaSingle, err := captureStdout(t, func() error { return runQuery(append(args, single)) })
	if err != nil {
		t.Fatalf("query single: %v", err)
	}
	if len(viaManifest) == 0 || !strings.Contains(string(viaManifest), `"reduced"`) {
		t.Fatalf("manifest query output: %s", viaManifest)
	}
	// Numeric comparison, not byte equality: the reduction folds shard
	// partials in a different floating-point grouping than the
	// single-store frame fold, which is tolerance-equal by contract.
	var fromManifest, fromSingle any
	if err := json.Unmarshal(viaManifest, &fromManifest); err != nil {
		t.Fatalf("manifest output is not JSON: %v", err)
	}
	if err := json.Unmarshal(viaSingle, &fromSingle); err != nil {
		t.Fatalf("single output is not JSON: %v", err)
	}
	if !jsonAlmostEqual(fromManifest, fromSingle) {
		t.Errorf("manifest and single-store results differ:\n--- manifest ---\n%s\n--- single ---\n%s", viaManifest, viaSingle)
	}

	// inspect resolves a manifest like a store.
	out, err := captureStdout(t, func() error { return runInspect([]string{manifest}) })
	if err != nil {
		t.Fatalf("inspect manifest: %v", err)
	}
	if !strings.Contains(string(out), "frames:  5") {
		t.Errorf("inspect output: %s", out)
	}
}

func TestPackSingleShardIsStillAManifest(t *testing.T) {
	// -shards decides the output format: 1 means a one-shard dataset,
	// not a silent fall-back to a bare store at the manifest path.
	manifest, _ := packShardedDataset(t, 3, 1)
	man, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatalf("pack -shards 1 did not write a manifest: %v", err)
	}
	if len(man.Shards) != 1 || man.Len() != 3 {
		t.Errorf("manifest %+v, want one 3-frame shard", man)
	}
	if _, err := captureStdout(t, func() error { return runQuery([]string{"-aggs", "mean", manifest}) }); err != nil {
		t.Errorf("query over 1-shard manifest: %v", err)
	}
}

// jsonAlmostEqual compares decoded JSON values, with numbers equal
// within 1e-9 relative tolerance.
func jsonAlmostEqual(a, b any) bool {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k, v := range av {
			w, ok := bv[k]
			if !ok || !jsonAlmostEqual(v, w) {
				return false
			}
		}
		return true
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !jsonAlmostEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return false
		}
		scale := math.Max(1, math.Max(math.Abs(av), math.Abs(bv)))
		return math.Abs(av-bv) <= 1e-9*scale
	default:
		return a == b
	}
}

func TestStoreCLIErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	writeRaw(t, in, make([]float64, 16))

	if err := runPack([]string{filepath.Join(dir, "o.gbz"), in}); err == nil {
		t.Error("pack without -shape should fail")
	}
	if err := runPack([]string{"-shape", "4,4", filepath.Join(dir, "o.gbz")}); err == nil {
		t.Error("pack without frames should fail")
	}
	if err := runPack([]string{"-shape", "8,8", filepath.Join(dir, "o.gbz"), in}); err == nil {
		t.Error("pack with wrong-sized frame should fail")
	}
	if err := runUnpack([]string{in, filepath.Join(dir, "p")}); err == nil {
		t.Error("unpack of a non-store should fail")
	}
	if err := runInspect([]string{in}); err == nil {
		t.Error("inspect of a non-store should fail")
	}
	if err := runInspect(nil); err == nil {
		t.Error("inspect without a path should fail")
	}
}

func TestOpenErrorsNamePathAndCause(t *testing.T) {
	// A store that cannot be opened is the user's to fix: the message
	// must say which file and why, not the constant text a request's
	// internal error gets over HTTP.
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.store")
	_, notExist := os.Open(missing)
	fixture, err := os.ReadFile("../../internal/store/testdata/v1.store")
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "prefix.store")
	if err := os.WriteFile(prefix, fixture[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	_, truncated := store.Open(prefix)
	if notExist == nil || truncated == nil {
		t.Fatalf("open causes: %v, %v", notExist, truncated)
	}
	for _, c := range []struct {
		name, path string
		run        func([]string) error
		cause      error
	}{
		{"inspect missing", missing, runInspect, notExist},
		{"inspect prefix", prefix, runInspect, truncated},
		{"query prefix", prefix, runQuery, truncated},
	} {
		err := c.run([]string{c.path})
		if err == nil || !strings.Contains(err.Error(), c.path) || !strings.Contains(err.Error(), c.cause.Error()) {
			t.Errorf("%s = %v, want it to name %s and %q", c.name, err, c.path, c.cause)
		}
	}
}

func TestServeHandler(t *testing.T) {
	const rows, cols = 8, 8
	dir := t.TempDir()
	inputs, frames := packInputs(t, dir, 2, rows, cols)
	out := filepath.Join(dir, "s.gbz")
	if err := runPack(append([]string{"-shape", "8,8", "-codec", "zfp:rate=32", out}, inputs...)); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(httpapi.New(api.NewLocal(r, query.New(r, query.Options{}).Run), nil, httpapi.Options{}))
	defer srv.Close()

	get := func(path string, wantStatus int) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	get("/healthz", 200)

	var meta struct {
		Spec   string `json:"spec"`
		Frames int    `json:"frames"`
	}
	if err := json.Unmarshal(get("/v1/store", 200), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Spec != "zfp:rate=32" || meta.Frames != 2 {
		t.Errorf("/v1/store = %+v", meta)
	}

	var index []api.FrameInfo
	if err := json.Unmarshal(get("/v1/frames", 200), &index); err != nil {
		t.Fatal(err)
	}
	if len(index) != 2 || index[1].Label != 1 || index[1].Length <= 0 {
		t.Errorf("/v1/frames = %+v", index)
	}

	// A served frame decodes to the zfp round trip of the original.
	body := get("/v1/frames/1", 200)
	if len(body) != rows*cols*8 {
		t.Fatalf("frame body = %d bytes, want %d", len(body), rows*cols*8)
	}
	got := make([]float64, rows*cols)
	for i := range got {
		got[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	cd, _ := codec.Lookup("zfp:rate=32")
	c, _ := cd.Compress(frames[1])
	want, _ := cd.Decompress(c)
	if tensor.FromSlice(got, rows, cols).MaxAbsDiff(want) != 0 {
		t.Error("served frame differs from codec round trip")
	}

	payload := get("/v1/frames/0/payload", 200)
	direct, err := r.Payload(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(direct) {
		t.Error("served payload differs from store payload")
	}

	get("/v1/frames/7", 404)
	get("/v1/frames/banana", 400)
}

func TestLimitMountsSharesDefaultLimiter(t *testing.T) {
	path := packQueryStore(t)
	var (
		def              api.Backend
		stores, datasets map[string]api.Backend
	)
	if _, err := captureStdout(t, func() error {
		var closeAll func()
		var err error
		def, stores, datasets, closeAll, err = openMounts([]string{path}, 0)
		if err == nil {
			t.Cleanup(closeAll)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wrappedDef := limitMounts(def, stores, datasets, api.LimitOptions{MaxConcurrent: 4})
	if wrappedDef == def {
		t.Fatal("default mount was not wrapped")
	}
	if stores["q"] != wrappedDef { // packQueryStore writes q.gbz
		t.Error("default and named mounts must share one limiter instance")
	}
	if limitMounts(def, stores, datasets, api.LimitOptions{}) != def {
		t.Error("MaxConcurrent 0 must leave the default unwrapped")
	}
}

// serveStore packs a store with the given spec and serves it with a
// query engine attached.
func serveStore(t *testing.T, spec string, n, rows, cols int) (*httptest.Server, []*tensor.Tensor) {
	t.Helper()
	dir := t.TempDir()
	inputs, frames := packInputs(t, dir, n, rows, cols)
	out := filepath.Join(dir, "s.gbz")
	shape := fmt.Sprintf("%d,%d", rows, cols)
	if err := runPack(append([]string{"-shape", shape, "-codec", spec, out}, inputs...)); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := httptest.NewServer(httpapi.New(api.NewLocal(r, query.New(r, query.Options{CacheBytes: 1 << 20}).Run), nil, httpapi.Options{}))
	t.Cleanup(srv.Close)
	return srv, frames
}

// postQuery POSTs a query request body and returns the status and body.
func postQuery(t *testing.T, srv *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestQueryEndpointCompressedSpace(t *testing.T) {
	// The acceptance path: a mean aggregate over a multi-frame goblaz
	// store answers without decoding frames.
	srv, frames := serveStore(t, "goblaz:block=4x4,float=float64,index=int16", 3, 16, 16)
	status, body := postQuery(t, srv, `{"select":{},"aggregates":["mean","variance"]}`)
	if status != 200 {
		t.Fatalf("POST /v1/query = %d: %s", status, body)
	}
	var res query.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.ExecutedInCompressedSpace {
		t.Error("goblaz mean/variance must execute in compressed space")
	}
	if len(res.Frames) != 3 {
		t.Fatalf("got %d frame results, want 3", len(res.Frames))
	}
	for i, f := range res.Frames {
		if !f.ExecutedInCompressedSpace {
			t.Errorf("frame %d decoded", i)
		}
		// vs the original frame, so tolerance covers quantization.
		want := frames[i].Mean()
		if got := float64(f.Aggregates["mean"]); math.Abs(got-want) > 1e-4 {
			t.Errorf("frame %d mean = %g, want ≈ %g", i, got, want)
		}
	}
}

func TestQueryEndpointDecodeFallback(t *testing.T) {
	// The same query against an sz: store succeeds via decode fallback.
	srv, frames := serveStore(t, "sz:mode=curvefit,tol=1e-4", 3, 16, 16)
	status, body := postQuery(t, srv, `{"select":{},"aggregates":["mean","variance"]}`)
	if status != 200 {
		t.Fatalf("POST /v1/query = %d: %s", status, body)
	}
	var res query.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ExecutedInCompressedSpace {
		t.Error("sz has no compressed-space ops; flag must be false")
	}
	for i, f := range res.Frames {
		if got, want := float64(f.Aggregates["mean"]), frames[i].Mean(); math.Abs(got-want) > 1e-3 {
			t.Errorf("frame %d mean = %g, want ≈ %g", i, got, want)
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := serveStore(t, "zfp:rate=16", 2, 8, 8)
	for _, body := range []string{
		`{not json`,
		`{"select":{},"aggregates":["median"]}`,           // unknown aggregate
		`{"select":{"labels":"9"},"aggregates":["mean"]}`, // matches nothing
		`{"select":{},"bananas":true}`,                    // unknown field
	} {
		if status, _ := postQuery(t, srv, body); status != 400 {
			t.Errorf("POST %s = %d, want 400", body, status)
		}
	}
}

func TestStatsAndRegionRoutes(t *testing.T) {
	srv, frames := serveStore(t, "goblaz:block=4x4,float=float64,index=int16", 2, 16, 16)
	client := srv.Client()

	resp, err := client.Get(srv.URL + "/v1/frames/1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var fr query.FrameResult
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"mean", "variance", "stddev", "min", "max", "l2norm"} {
		if _, ok := fr.Aggregates[kind]; !ok {
			t.Errorf("stats missing %q: %+v", kind, fr.Aggregates)
		}
	}
	if fr.Aggregates["min"] > fr.Aggregates["mean"] || fr.Aggregates["mean"] > fr.Aggregates["max"] {
		t.Errorf("min/mean/max out of order: %+v", fr.Aggregates)
	}

	resp, err = client.Get(srv.URL + "/v1/frames/0/region?offset=2,3&shape=3,4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("region = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.Region == nil || len(fr.Region.Values) != 12 {
		t.Fatalf("region result %+v", fr.Region)
	}
	if !fr.ExecutedInCompressedSpace {
		t.Error("goblaz region read should be a partial decode")
	}
	// Compared against the original (pre-compression) frame, so the
	// tolerance covers int16 quantization loss.
	if got, want := fr.Region.Values[0], frames[0].At(2, 3); math.Abs(got-want) > 1e-3 {
		t.Errorf("region[0] = %g, want ≈ %g", got, want)
	}

	// Route-level validation.
	for _, path := range []string{
		"/v1/frames/9/stats",                         // no such frame
		"/v1/frames/0/region?offset=2&shape=3,4",     // dim mismatch
		"/v1/frames/0/region?offset=a,b&shape=1,1",   // not integers
		"/v1/frames/0/region?offset=20,20&shape=4,4", // out of bounds
	} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 && resp.StatusCode != 404 {
			t.Errorf("GET %s = %d, want 4xx", path, resp.StatusCode)
		}
	}
}

func TestFrameETag(t *testing.T) {
	srv, _ := serveStore(t, "zfp:rate=16", 2, 8, 8)
	client := srv.Client()

	for _, path := range []string{"/v1/frames/0", "/v1/frames/0/payload"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if len(etag) != 10 || etag[0] != '"' {
			t.Fatalf("GET %s ETag = %q, want quoted crc32", path, etag)
		}

		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("GET %s with matching If-None-Match = %d, want 304", path, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("304 for %s carried a %d-byte body", path, len(body))
		}

		req.Header.Set("If-None-Match", `"00000000", `+etag)
		if resp, err = client.Do(req); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("ETag in a list should still match, got %d", resp.StatusCode)
		}

		req.Header.Set("If-None-Match", `"deadbeef"`)
		if resp, err = client.Do(req); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("stale If-None-Match should refetch, got %d", resp.StatusCode)
		}
	}
}

func TestStatsRouteNonCanonicalLabel(t *testing.T) {
	// "01" resolves to the frame labeled 1 everywhere else on the API;
	// the convenience routes must agree instead of 400ing.
	srv, _ := serveStore(t, "zfp:rate=16", 2, 8, 8)
	resp, err := srv.Client().Get(srv.URL + "/v1/frames/01/stats?aggs=mean")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats for label 01 = %d, want 200", resp.StatusCode)
	}
	var fr query.FrameResult
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.Label != 1 {
		t.Errorf("label = %d, want 1", fr.Label)
	}
}

func TestQueryEndpointInfinitePSNR(t *testing.T) {
	// Self-PSNR is +Inf; the endpoint answers 200 with "+Inf", not 500.
	srv, _ := serveStore(t, "goblaz:block=4x4,float=float64,index=int16", 2, 8, 8)
	status, body := postQuery(t, srv, `{"select":{},"metric":{"kind":"psnr","against":0}}`)
	if status != 200 {
		t.Fatalf("POST = %d: %s", status, body)
	}
	if !strings.Contains(string(body), `"+Inf"`) {
		t.Errorf(`response should encode the self-PSNR as "+Inf": %s`, body)
	}
}
