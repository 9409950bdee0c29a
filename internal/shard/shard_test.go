package shard

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/series"
	"repro/internal/store"
	"repro/internal/tensor"
)

const (
	goblazSpec = "goblaz:block=4x4,float=float64,index=int16"
	zfpSpec    = "zfp:rate=16"
)

// randomFrames builds n deterministic pseudo-random rows×cols frames.
func randomFrames(rng *rand.Rand, n, rows, cols int) []*tensor.Tensor {
	frames := make([]*tensor.Tensor, n)
	for k := range frames {
		t := tensor.New(rows, cols)
		v := rng.NormFloat64()
		for i := range t.Data() {
			// A smooth random walk compresses sanely under every codec.
			v += 0.1 * rng.NormFloat64()
			t.Data()[i] = v
		}
		frames[k] = t
	}
	return frames
}

func mustCoder(t testing.TB, spec string) codec.Coder {
	t.Helper()
	cd, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	coder, ok := cd.(codec.Coder)
	if !ok {
		t.Fatalf("codec %q does not serialize", spec)
	}
	return coder
}

// buildDataset writes frames as an nShards dataset and returns the
// manifest path.
func buildDataset(t testing.TB, dir, spec string, frames []*tensor.Tensor, nShards int) string {
	t.Helper()
	labels := make([]int, len(frames))
	for i := range labels {
		labels[i] = i
	}
	path := filepath.Join(dir, "ds.json")
	_, err := WriteDatasetAssigned(path, mustCoder(t, spec), nil, labels, nShards, 0,
		func(i int) (*tensor.Tensor, error) { return frames[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// buildStore writes frames as one store file and returns its path.
func buildStore(t testing.TB, dir, spec string, frames []*tensor.Tensor) string {
	t.Helper()
	// A 1-shard dataset's only shard is a plain store holding every
	// frame in order — reuse the writer.
	path := buildDataset(t, dir, spec, frames, 1)
	man, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, man.Shards[0].Path)
}

func TestWriteDatasetAndOpen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	frames := randomFrames(rng, 7, 16, 16)
	path := buildDataset(t, dir, goblazSpec, frames, 3)

	man, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 3 || man.Len() != 7 {
		t.Fatalf("manifest %+v", man)
	}
	// Contiguous split: global order is input order.
	wantSizes := []int{2, 2, 3} // ⌊7·s/3⌋ boundaries: 0,2,4,7
	for s, sh := range man.Shards {
		if sh.Frames != wantSizes[s] {
			t.Errorf("shard %d holds %d frames, want %d", s, sh.Frames, wantSizes[s])
		}
	}

	d, err := Open(path, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != 7 || d.Shards() != 3 || d.Specs()[0] != man.Spec {
		t.Fatalf("dataset Len=%d Shards=%d Spec=%q", d.Len(), d.Shards(), d.Specs()[0])
	}
	for i := 0; i < d.Len(); i++ {
		if d.Info(i).Label != i {
			t.Errorf("global frame %d has label %d", i, d.Info(i).Label)
		}
		if gi, ok := d.IndexOf(i); !ok || gi != i {
			t.Errorf("IndexOf(%d) = %d, %v", i, gi, ok)
		}
	}
	// Frames decompress identically to the direct codec round trip.
	coder := mustCoder(t, goblazSpec)
	for i, f := range frames {
		got, err := d.Decompress(i)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := coder.Compress(f)
		want, _ := coder.Decompress(c)
		if got.MaxAbsDiff(want) != 0 {
			t.Errorf("frame %d differs from codec round trip", i)
		}
	}
	if _, ok := d.IndexOf(99); ok {
		t.Error("IndexOf(99) should miss")
	}
}

func TestManifestValidation(t *testing.T) {
	bad := []Manifest{
		{Version: 9, Spec: "goblaz", Shards: []ShardInfo{{Path: "a", Frames: 0}}},
		{Version: 1, Spec: "", Shards: []ShardInfo{{Path: "a", Frames: 0}}},
		{Version: 1, Spec: "goblaz"},
		{Version: 1, Spec: "goblaz", Shards: []ShardInfo{{Path: "", Frames: 0}}},
		{Version: 1, Spec: "goblaz", Shards: []ShardInfo{{Path: "a", Frames: 2, Labels: []int{1}}}},
		{Version: 1, Spec: "goblaz", Shards: []ShardInfo{
			{Path: "a", Frames: 1, Labels: []int{3}},
			{Path: "b", Frames: 1, Labels: []int{3}},
		}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("manifest %d should not validate", i)
		}
	}
}

func TestOpenRejectsDriftedManifest(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	frames := randomFrames(rng, 4, 8, 8)
	path := buildDataset(t, dir, goblazSpec, frames, 2)
	man, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// Claim a label the shard does not hold.
	man.Shards[0].Labels[0] = 77
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, query.Options{}); err == nil {
		t.Error("a manifest that disagrees with its shard files must not open")
	}
}

func TestOpenRejectsSwappedShardFile(t *testing.T) {
	// An interrupted repack can leave a shard file from a different
	// pack next to the manifest; the footer CRC in the manifest catches
	// it even when frame counts and labels agree.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	frames := randomFrames(rng, 4, 8, 8)
	path := buildDataset(t, dir, goblazSpec, frames, 2)
	man, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-pack the same shard's frames (same labels, different data) and
	// swap the file in behind the manifest's back.
	other := buildDataset(t, t.TempDir(), goblazSpec, randomFrames(rng, 4, 8, 8), 2)
	otherMan, err := LoadManifest(other)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(filepath.Dir(other), otherMan.Shards[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, man.Shards[0].Path), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, query.Options{}); err == nil {
		t.Error("a swapped shard file must not open behind the original manifest")
	}
}

func TestWriteDatasetRejectsDuplicateLabels(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	frames := randomFrames(rng, 3, 8, 8)
	_, err := WriteDatasetAssigned(filepath.Join(dir, "dup.json"), mustCoder(t, goblazSpec), nil,
		[]int{0, 1, 1}, 2, 0, func(i int) (*tensor.Tensor, error) { return frames[i], nil })
	if err == nil {
		t.Fatal("duplicate labels must fail before packing")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed pack left files behind: %v", entries)
	}
}

func TestIsManifest(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	frames := randomFrames(rng, 2, 8, 8)
	manifest := buildDataset(t, dir, zfpSpec, frames, 2)
	storePath := buildStore(t, dir, zfpSpec, frames)
	if !IsManifest(manifest) {
		t.Error("manifest not recognized")
	}
	if IsManifest(storePath) {
		t.Error("store file misrecognized as manifest")
	}
	if IsManifest(filepath.Join(dir, "missing")) {
		t.Error("missing file misrecognized as manifest")
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if IsManifest(empty) {
		t.Error("empty file misrecognized as manifest")
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareResults asserts the sharded result equals the single-store
// one bit for bit.
func compareResults(t *testing.T, want, got *query.Result) {
	t.Helper()
	if got.Spec != want.Spec {
		t.Errorf("spec %q != %q", got.Spec, want.Spec)
	}
	if len(got.Specs) != len(want.Specs) {
		t.Errorf("specs %v != %v", got.Specs, want.Specs)
	} else {
		for i := range want.Specs {
			if got.Specs[i] != want.Specs[i] {
				t.Errorf("specs[%d] %q != %q", i, got.Specs[i], want.Specs[i])
			}
		}
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
		if len(g.Aggregates) != len(w.Aggregates) {
			t.Errorf("frame %d aggregates %v != %v", i, g.Aggregates, w.Aggregates)
		}
		for kind, wv := range w.Aggregates {
			if !sameBits(float64(g.Aggregates[kind]), float64(wv)) {
				t.Errorf("frame %d %s = %v, want %v", i, kind, g.Aggregates[kind], wv)
			}
		}
		if (g.Metric == nil) != (w.Metric == nil) {
			t.Errorf("frame %d metric presence mismatch", i)
		} else if w.Metric != nil && !sameBits(float64(*g.Metric), float64(*w.Metric)) {
			t.Errorf("frame %d metric = %v, want %v", i, *g.Metric, *w.Metric)
		}
		if (g.Region == nil) != (w.Region == nil) {
			t.Errorf("frame %d region presence mismatch", i)
		} else if w.Region != nil {
			if len(g.Region.Values) != len(w.Region.Values) {
				t.Fatalf("frame %d region size %d != %d", i, len(g.Region.Values), len(w.Region.Values))
			}
			for j := range w.Region.Values {
				if !sameBits(g.Region.Values[j], w.Region.Values[j]) {
					t.Errorf("frame %d region[%d] = %g, want %g", i, j, g.Region.Values[j], w.Region.Values[j])
				}
			}
		}
		if (g.Point == nil) != (w.Point == nil) {
			t.Errorf("frame %d point presence mismatch", i)
		} else if w.Point != nil && !sameBits(float64(*g.Point), float64(*w.Point)) {
			t.Errorf("frame %d point = %v, want %v", i, *g.Point, *w.Point)
		}
	}
	if (got.Pair == nil) != (want.Pair == nil) {
		t.Errorf("pair presence mismatch")
	} else if want.Pair != nil {
		if got.Pair.A != want.Pair.A || got.Pair.B != want.Pair.B || got.Pair.Kind != want.Pair.Kind {
			t.Errorf("pair %+v, want %+v", got.Pair, want.Pair)
		}
		if !sameBits(float64(got.Pair.Value), float64(want.Pair.Value)) {
			t.Errorf("pair value %v, want %v", got.Pair.Value, want.Pair.Value)
		}
	}
	if (got.Reduced == nil) != (want.Reduced == nil) {
		t.Errorf("reduced presence mismatch")
	} else if want.Reduced != nil {
		if got.Reduced.N != want.Reduced.N || got.Reduced.Frames != want.Reduced.Frames ||
			!sameBits(float64(got.Reduced.Sum), float64(want.Reduced.Sum)) ||
			!sameBits(float64(got.Reduced.SumSq), float64(want.Reduced.SumSq)) {
			t.Errorf("reduced state %+v, want %+v", got.Reduced.Moments, want.Reduced.Moments)
		}
		if len(got.Reduced.Values) != len(want.Reduced.Values) {
			t.Errorf("reduced values %v != %v", got.Reduced.Values, want.Reduced.Values)
		}
		for kind, wv := range want.Reduced.Values {
			if !sameBits(float64(got.Reduced.Values[kind]), float64(wv)) {
				t.Errorf("reduced %s = %v, want %v", kind, got.Reduced.Values[kind], wv)
			}
		}
	}
}

// propertyRequests is the request battery of the shard-vs-single
// differential test: every aggregate, every metric (vs-reference and
// pairwise), reductions on both execution paths, region and point
// reads, and boundary-crossing selections.
func propertyRequests(n int) []*query.Request {
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
		{Reduce: []string{query.AggMean, query.AggL2Norm}}, // compressed-space moments
		{Aggregates: []string{query.AggMean}, Reduce: []string{query.AggVariance, query.AggStdDev}},
		{Select: query.Selector{From: &from, To: &to}, Aggregates: []string{query.AggMean}, Reduce: all},
		{Select: query.Selector{Labels: "?"}, Aggregates: all}, // glob pruning
		{Region: &query.RegionRequest{Offset: []int{3, 5}, Shape: []int{7, 6}}},
		{Point: []int{10, 12}},
		{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricPSNR, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricDot, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref}, Reduce: []string{query.AggMean}},
		// Pairwise across a shard boundary (frames 0 and 1 land in
		// different shards whenever shards ≥ frames/2).
		{Select: query.Selector{To: &pairTo}, Metric: &query.MetricRequest{Kind: query.MetricDot}},
	}
	return reqs
}

func TestShardedQueryMatchesSingleStore(t *testing.T) {
	// The property the whole subsystem stands on: for randomized frame
	// sets and every shard count 1..8, a sharded dataset answers every
	// query bit-identically to the same frames in one store.
	rng := rand.New(rand.NewSource(42))
	for _, spec := range []string{goblazSpec, zfpSpec} {
		for shards := 1; shards <= 8; shards++ {
			dir := t.TempDir()
			n := 8 + rng.Intn(5)
			frames := randomFrames(rng, n, 16, 16)

			single, err := store.Open(buildStore(t, dir, spec, frames))
			if err != nil {
				t.Fatal(err)
			}
			eng := query.New(single, query.Options{})
			ds, err := Open(buildDataset(t, dir, spec, frames, shards), query.Options{})
			if err != nil {
				t.Fatal(err)
			}

			for ri, req := range propertyRequests(n) {
				want, err := eng.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d single: %v", spec, shards, ri, err)
				}
				// Run on a copy: the dataset must never touch the caller's
				// request.
				reqCopy := *req
				got, err := ds.Query(context.Background(), &reqCopy)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d sharded: %v", spec, shards, ri, err)
				}
				t.Run("", func(t *testing.T) { compareResults(t, want, got) })
			}
			single.Close()
			ds.Close()
		}
	}
}

func TestWriteStoreMatchesCodecPipeline(t *testing.T) {
	// WriteStore with a nil assign runs the assigned pipeline under a
	// constant coder; its file must equal, byte for byte, the one a
	// uniform pipeline into Writer.Sink writes from the same frames.
	frames := randomFrames(rand.New(rand.NewSource(7)), 5, 16, 16)
	labels := []int{3, 1, 4, 15, 9}
	for _, spec := range []string{goblazSpec, zfpSpec} {
		coder := mustCoder(t, spec)
		dir := t.TempDir()
		path := filepath.Join(dir, "assigned.gbz")
		if err := WriteStore(path, coder, nil, labels, 2,
			func(i int) (*tensor.Tensor, error) { return frames[i], nil }); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		var want bytes.Buffer
		w, err := store.NewWriter(&want, coder.Spec())
		if err != nil {
			t.Fatal(err)
		}
		p := series.NewCodecPipeline(coder, w.Sink(coder), 2)
		for i, label := range labels {
			p.Submit(label, frames[i])
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: WriteStore wrote %d bytes that differ from the uniform pipeline's %d",
				spec, len(got), want.Len())
		}
	}
}

// alternatingAssign compresses even labels under the default goblaz
// spec and odd labels under zfp — every multi-frame shard comes out
// mixed-codec (store format v2).
func alternatingAssign(t testing.TB) AssignFunc {
	g, z := mustCoder(t, goblazSpec), mustCoder(t, zfpSpec)
	return func(label int, _ *tensor.Tensor) (codec.Coder, error) {
		if label%2 == 0 {
			return g, nil
		}
		return z, nil
	}
}

// buildDatasetAssigned writes frames with the alternating goblaz/zfp
// assignment and returns the manifest path.
func buildDatasetAssigned(t testing.TB, dir string, frames []*tensor.Tensor, nShards int) string {
	t.Helper()
	labels := make([]int, len(frames))
	for i := range labels {
		labels[i] = i
	}
	path := filepath.Join(dir, "ds.json")
	_, err := WriteDatasetAssigned(path, mustCoder(t, goblazSpec), alternatingAssign(t),
		labels, nShards, 0, func(i int) (*tensor.Tensor, error) { return frames[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestShardedMixedCodecMatchesSingleStore(t *testing.T) {
	// The differential property again, for mixed-codec datasets: the same
	// alternating goblaz/zfp frames in one v2 store and split across every
	// shard count 1..8 answer the whole request battery bit-identically
	// — including the pairwise and vs-reference metrics
	// that cross codec boundaries and must agree on the decode fallback.
	rng := rand.New(rand.NewSource(43))
	for shards := 1; shards <= 8; shards++ {
		dir := t.TempDir()
		n := 8 + rng.Intn(5)
		frames := randomFrames(rng, n, 16, 16)

		singlePath := buildDatasetAssigned(t, dir, frames, 1)
		man, err := LoadManifest(singlePath)
		if err != nil {
			t.Fatal(err)
		}
		single, err := store.Open(filepath.Join(dir, man.Shards[0].Path))
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Specs()) < 2 {
			t.Fatal("fixture store is not mixed-codec")
		}
		eng := query.New(single, query.Options{})
		shardDir := t.TempDir()
		ds, err := Open(buildDatasetAssigned(t, shardDir, frames, shards), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if specs := ds.Specs(); len(specs) != 2 || specs[0] != single.Spec() {
			t.Fatalf("dataset specs %v, want default-first pair", specs)
		}

		for ri, req := range propertyRequests(n) {
			want, err := eng.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("shards=%d req=%d single: %v", shards, ri, err)
			}
			reqCopy := *req
			got, err := ds.Query(context.Background(), &reqCopy)
			if err != nil {
				t.Fatalf("shards=%d req=%d sharded: %v", shards, ri, err)
			}
			t.Run("", func(t *testing.T) { compareResults(t, want, got) })
		}
		single.Close()
		ds.Close()
	}
}

func TestDatasetQueryErrors(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	frames := randomFrames(rng, 6, 8, 8)
	ds, err := Open(buildDataset(t, dir, goblazSpec, frames, 3), query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()

	for _, req := range []*query.Request{
		nil,
		{},
		{Aggregates: []string{"median"}},
		{Reduce: []string{"median"}},
		{Select: query.Selector{Labels: "9"}, Aggregates: []string{"mean"}},
		{Select: query.Selector{Labels: "["}, Aggregates: []string{"mean"}},
		{Metric: &query.MetricRequest{Kind: "mse", Against: ptr(99)}},
	} {
		res, err := ds.Query(ctx, req)
		if err == nil {
			t.Errorf("request %+v should fail, got %+v", req, res)
			continue
		}
		if !errors.Is(err, query.ErrBadRequest) {
			t.Errorf("request %+v: error %v should wrap query.ErrBadRequest", req, err)
		}
	}
}

func ptr(v int) *int { return &v }
