// Package conformance is the reusable v1 Backend contract suite: one
// table of Spec/Frames/Frame/Region/Stats/Query cases — including the
// error-code contract — executed against every Backend implementation.
// api.Local, api.Client (through a real HTTP server), and the sharded
// backend all pass the same harness, which is what keeps "a URL, a
// store path, and a manifest are interchangeable" true as the surface
// grows: a new backend (or a behavior change in an old one) is one
// Run call away from being checked against the whole contract.
//
// Usage, from any test package:
//
//	fx := conformance.NewFixture(t)
//	conformance.Run(t, fx, func(t *testing.T) api.Backend { ... })
package conformance

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// Spec is the codec every fixture store is written with. float64 with
// no pruning keeps values well-conditioned. Every aggregate of a Spec
// frame runs in compressed space, min and max included (codec.Extrema).
const Spec = "goblaz:block=4x4,float=float64,index=int16"

// MixedSpec is the off-default codec of the mixed-codec fixture
// (NewMixedFixture): odd frames compress under it, exercising store
// format v2's per-frame specs through every backend.
const MixedSpec = "zfp:rate=32"

// NonFiniteSpec is the codec of the non-finite fixture
// (NewNonFiniteFixture): float16 coefficients overflow on values near
// 1e6, so its frame decodes to NaN.
const NonFiniteSpec = "goblaz:block=4x4,float=float16,index=int8"

// FrameCount and the fixture dimensions are part of the expected-value
// table below; changing them means re-deriving the cases.
const (
	FrameCount = 6
	Rows       = 16
	Cols       = 16
)

// Fixture is the canonical dataset every backend under test must serve:
// FrameCount deterministic frames, labeled 0..FrameCount-1, and their
// expected decompressed values (the codec round trip — the store and
// transport layers must add no loss of their own).
type Fixture struct {
	// Spec is the canonical codec spec a conforming backend must
	// report (Lookup(Spec) normalized).
	Spec string
	// FrameSpecs is each frame's canonical codec spec; nil for the
	// uniform fixture. Entries equal to Spec compress under the default
	// and must surface with an empty FrameInfo.Spec.
	FrameSpecs []string
	// Frames holds the original (pre-compression) frames by label.
	Frames []*tensor.Tensor
	// Decoded holds the codec round trip of each frame — what a
	// conforming backend must return, element-exact.
	Decoded []*tensor.Tensor
}

// Mixed reports whether the fixture uses more than one codec.
func (fx *Fixture) Mixed() bool { return fx.FrameSpecs != nil }

// compressedSpace reports whether frame label's codec answers every
// aggregate and reduction in compressed space: goblaz does, MixedSpec's
// zfp decodes.
func (fx *Fixture) compressedSpace(label int) bool {
	return !fx.Mixed() || fx.FrameSpecs[label] == fx.Spec
}

// NewFixture builds the canonical frames and their expected decodes.
func NewFixture(t testing.TB) *Fixture {
	return newFixture(t, false)
}

// NewMixedFixture builds the same frames with odd labels compressed
// under MixedSpec: a mixed-codec (format v2) dataset whose expected
// decodes follow each frame's own codec. Every backend must serve it
// through the identical contract, plus the per-frame spec surfacing
// the uniform fixture never exercises.
func NewMixedFixture(t testing.TB) *Fixture {
	return newFixture(t, true)
}

// NewNonFiniteFixture builds one 8×8 frame of values near 1e6 under
// NonFiniteSpec, whose codec round trip is not finite. It is the input
// of RunNonFinite, not of Run.
func NewNonFiniteFixture(t testing.TB) *Fixture {
	t.Helper()
	cd, err := codec.Lookup(NonFiniteSpec)
	if err != nil {
		t.Fatal(err)
	}
	f := tensor.New(8, 8)
	for i := range f.Data() {
		f.Data()[i] = 1e6 + float64(i)
	}
	c, err := cd.Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cd.Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	return &Fixture{Spec: cd.Spec(), Frames: []*tensor.Tensor{f}, Decoded: []*tensor.Tensor{dec}}
}

func newFixture(t testing.TB, mixed bool) *Fixture {
	t.Helper()
	coderOf := func(spec string) codec.Codec {
		cd, err := codec.Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		return cd
	}
	def := coderOf(Spec)
	fx := &Fixture{Spec: def.Spec()}
	for k := 0; k < FrameCount; k++ {
		cd := def
		if mixed && k%2 == 1 {
			cd = coderOf(MixedSpec)
		}
		if mixed {
			fx.FrameSpecs = append(fx.FrameSpecs, cd.Spec())
		}
		f := tensor.New(Rows, Cols)
		for i := range f.Data() {
			f.Data()[i] = math.Sin(float64(i)/7+float64(k)) + 0.25*float64(k)
		}
		c, err := cd.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := cd.Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		fx.Frames = append(fx.Frames, f)
		fx.Decoded = append(fx.Decoded, dec)
	}
	return fx
}

// labels returns the fixture's label sequence 0..FrameCount-1.
func (fx *Fixture) labels() []int {
	labels := make([]int, len(fx.Frames))
	for i := range labels {
		labels[i] = i
	}
	return labels
}

// BuildStore writes the fixture as one store file under dir and returns
// its path.
func (fx *Fixture) BuildStore(t testing.TB, dir string) string {
	t.Helper()
	return filepath.Join(dir, fx.buildManifest(t, dir, 1).Shards[0].Path)
}

// BuildManifest writes the fixture as an nShards dataset under dir and
// returns the manifest path.
func (fx *Fixture) BuildManifest(t testing.TB, dir string, nShards int) string {
	t.Helper()
	fx.buildManifest(t, dir, nShards)
	return filepath.Join(dir, "fixture.json")
}

func (fx *Fixture) buildManifest(t testing.TB, dir string, nShards int) *shard.Manifest {
	t.Helper()
	mustCoder := func(spec string) codec.Coder {
		coder, err := codec.Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		return coder
	}
	coder := mustCoder(fx.Spec)
	path := filepath.Join(dir, "fixture.json")
	frame := func(i int) (*tensor.Tensor, error) { return fx.Frames[i], nil }
	var assign shard.AssignFunc
	if fx.Mixed() {
		coders := make([]codec.Coder, len(fx.FrameSpecs))
		for i, spec := range fx.FrameSpecs {
			coders[i] = mustCoder(spec)
		}
		// Labels are positions, so the assignment indexes by label.
		assign = func(label int, _ *tensor.Tensor) (codec.Coder, error) { return coders[label], nil }
	}
	man, err := shard.WriteDatasetAssigned(path, coder, assign, fx.labels(), nShards, 0, frame)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// Run executes the conformance suite against a fresh backend per
// subtest. open must return a Backend serving the fixture (and may
// register cleanup on t).
func Run(t *testing.T, fx *Fixture, open func(t *testing.T) api.Backend) {
	t.Run("spec", func(t *testing.T) { testSpec(t, fx, open(t)) })
	t.Run("frames", func(t *testing.T) { testFrames(t, fx, open(t)) })
	t.Run("frame", func(t *testing.T) { testFrame(t, fx, open(t)) })
	t.Run("region", func(t *testing.T) { testRegion(t, fx, open(t)) })
	t.Run("stats", func(t *testing.T) { testStats(t, fx, open(t)) })
	t.Run("query", func(t *testing.T) { testQuery(t, fx, open(t)) })
	t.Run("errors", func(t *testing.T) { testErrorContract(t, open(t)) })
	t.Run("cancellation", func(t *testing.T) { testCancellation(t, open(t)) })
}

// RunNonFinite checks a backend serving NewNonFiniteFixture: a region
// read answers the frame's NaN and ±Inf values as decoded, over every
// transport — a value encoding/json cannot write as a number must not
// turn the answer into an error — and a query's region agrees.
func RunNonFinite(t *testing.T, fx *Fixture, open func(t *testing.T) api.Backend) {
	b := open(t)
	ctx := context.Background()
	offset, shape := []int{0, 0}, []int{2, 2}
	want := fx.Decoded[0]
	check := func(what string, reg *query.RegionResult) {
		t.Helper()
		if reg == nil || len(reg.Values) != 4 {
			t.Fatalf("%s: region %+v", what, reg)
		}
		nonFinite := false
		for i, got := range reg.Values {
			w := want.At(offset[0]+i/shape[1], offset[1]+i%shape[1])
			if math.Float64bits(got) != math.Float64bits(w) && !(math.IsNaN(got) && math.IsNaN(w)) {
				t.Errorf("%s: value %d = %g, want %g", what, i, got, w)
			}
			nonFinite = nonFinite || math.IsNaN(w) || math.IsInf(w, 0)
		}
		if !nonFinite {
			t.Fatalf("%s: the fixture decodes to finite values %v; it no longer exercises non-finite answers", what, reg.Values)
		}
	}
	fr, err := b.Region(ctx, 0, offset, shape)
	if err != nil {
		t.Fatalf("region of a non-finite frame: %v", err)
	}
	check("region", fr.Region)
	res, err := b.Query(ctx, &query.Request{Region: &query.RegionRequest{Offset: offset, Shape: shape}})
	if err != nil {
		t.Fatalf("query region of a non-finite frame: %v", err)
	}
	check("query region", res.Frames[0].Region)
}

// tol is the comparison tolerance against expected values. Local reads
// are exact and JSON float64 round-trips exactly, so this only needs to
// absorb benign reassociation in merged statistics.
const tol = 1e-9

func near(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func testSpec(t *testing.T, fx *Fixture, b api.Backend) {
	info, err := b.Spec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Spec != fx.Spec {
		t.Errorf("spec %q, want %q", info.Spec, fx.Spec)
	}
	if info.Frames != FrameCount {
		t.Errorf("frames %d, want %d", info.Frames, FrameCount)
	}
	if fx.Mixed() {
		// The spec list leads with the default and covers every distinct
		// frame spec.
		if len(info.Specs) < 2 || info.Specs[0] != fx.Spec {
			t.Fatalf("mixed store specs %v, want default-first list with ≥2 entries", info.Specs)
		}
		listed := map[string]bool{}
		for _, s := range info.Specs {
			listed[s] = true
		}
		for _, s := range fx.FrameSpecs {
			if !listed[s] {
				t.Errorf("frame spec %q missing from store specs %v", s, info.Specs)
			}
		}
	} else if info.Specs != nil {
		t.Errorf("uniform store lists specs %v, want none", info.Specs)
	}
}

func testFrames(t *testing.T, fx *Fixture, b api.Backend) {
	infos, err := b.Frames(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != FrameCount {
		t.Fatalf("index has %d entries, want %d", len(infos), FrameCount)
	}
	for i, e := range infos {
		if e.Index != i || e.Label != i {
			t.Errorf("entry %d is (index %d, label %d), want (%d, %d)", i, e.Index, e.Label, i, i)
		}
		if e.Length <= 0 || len(e.CRC32) != 8 {
			t.Errorf("entry %d malformed: %+v", i, e)
		}
		// FrameInfo.Spec is set exactly when the frame deviates from the
		// store default.
		want := ""
		if fx.Mixed() && fx.FrameSpecs[i] != fx.Spec {
			want = fx.FrameSpecs[i]
		}
		if e.Spec != want {
			t.Errorf("entry %d spec %q, want %q", i, e.Spec, want)
		}
	}
	// Single-label resolution must agree with the full index.
	for i := range infos {
		one, err := b.FrameInfo(context.Background(), i)
		if err != nil || one != infos[i] {
			t.Errorf("FrameInfo(%d) = %+v, %v, want %+v", i, one, err, infos[i])
		}
	}
	if _, err := b.FrameInfo(context.Background(), 99); api.CodeOf(err) != api.CodeNotFound {
		t.Errorf("FrameInfo(99) = %v, want not_found", err)
	}
}

func testFrame(t *testing.T, fx *Fixture, b api.Backend) {
	for label, want := range fx.Decoded {
		f, err := b.Frame(context.Background(), label)
		if err != nil {
			t.Fatal(err)
		}
		if f.Label != label {
			t.Errorf("frame %d reports label %d", label, f.Label)
		}
		if len(f.Shape) != 2 || f.Shape[0] != Rows || f.Shape[1] != Cols {
			t.Fatalf("frame %d shape %v", label, f.Shape)
		}
		got := tensor.FromSlice(f.Data, f.Shape...)
		if got.MaxAbsDiff(want) > tol {
			t.Errorf("frame %d deviates from the codec round trip by %g", label, got.MaxAbsDiff(want))
		}
	}
}

func testRegion(t *testing.T, fx *Fixture, b api.Backend) {
	offset, shape := []int{2, 3}, []int{4, 5}
	fr, err := b.Region(context.Background(), 1, offset, shape)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Region == nil || len(fr.Region.Values) != 20 {
		t.Fatalf("region result %+v", fr.Region)
	}
	want := fx.Decoded[1]
	idx := 0
	for r := 0; r < shape[0]; r++ {
		for c := 0; c < shape[1]; c++ {
			if !near(fr.Region.Values[idx], want.At(offset[0]+r, offset[1]+c)) {
				t.Errorf("region[%d,%d] = %g, want %g", r, c, fr.Region.Values[idx], want.At(offset[0]+r, offset[1]+c))
			}
			idx++
		}
	}
}

func testStats(t *testing.T, fx *Fixture, b api.Backend) {
	// Default: all six aggregates.
	st, err := b.Stats(context.Background(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Aggregates) != len(api.AllAggregates) {
		t.Fatalf("default stats %v", st.Aggregates)
	}
	want := fx.Decoded[2]
	mean := want.Mean()
	checks := map[string]float64{
		query.AggMean:   mean,
		query.AggMin:    want.Min(),
		query.AggMax:    want.Max(),
		query.AggL2Norm: want.Norm2(),
	}
	for kind, w := range checks {
		if got := float64(st.Aggregates[kind]); !near(got, w) {
			t.Errorf("stats %s = %g, want %g", kind, got, w)
		}
	}
	variance := float64(st.Aggregates[query.AggVariance])
	if stddev := float64(st.Aggregates[query.AggStdDev]); !near(stddev, math.Sqrt(math.Max(variance, 0))) {
		t.Errorf("stddev %g inconsistent with variance %g", stddev, variance)
	}

	// The default set, min and max included, stays in compressed space
	// exactly on the frames whose codec has the entry points; on the
	// mixed fixture, label 1 is a zfp frame and decodes.
	for _, label := range []int{1, 2} {
		st, err := b.Stats(context.Background(), label, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := fx.compressedSpace(label); st.ExecutedInCompressedSpace != want {
			t.Errorf("stats of frame %d: executedInCompressedSpace %v, want %v", label, st.ExecutedInCompressedSpace, want)
		}
		if got, want := float64(st.Aggregates[query.AggMax]), fx.Decoded[label].Max(); !near(got, want) {
			t.Errorf("stats of frame %d: max %g, want %g", label, got, want)
		}
	}

	// A subset request returns exactly that subset.
	st, err = b.Stats(context.Background(), 2, []string{query.AggMean})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Aggregates) != 1 || !near(float64(st.Aggregates[query.AggMean]), mean) {
		t.Errorf("subset stats %v", st.Aggregates)
	}
}

func testQuery(t *testing.T, fx *Fixture, b api.Backend) {
	ctx := context.Background()

	// Per-frame aggregates over a glob selection.
	res, err := b.Query(ctx, &query.Request{
		Select:     query.Selector{Labels: "[0-2]"},
		Aggregates: []string{query.AggMean},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 3 {
		t.Fatalf("glob selected %d frames, want 3", len(res.Frames))
	}
	if fx.Mixed() && len(res.Specs) < 2 {
		t.Errorf("mixed-codec result lists specs %v, want ≥2", res.Specs)
	}
	for i, fr := range res.Frames {
		if fr.Label != i {
			t.Errorf("result %d has label %d", i, fr.Label)
		}
		if fx.Mixed() {
			wantSpec := ""
			if fx.FrameSpecs[i] != fx.Spec {
				wantSpec = fx.FrameSpecs[i]
			}
			if fr.Spec != wantSpec {
				t.Errorf("frame %d result spec %q, want %q", i, fr.Spec, wantSpec)
			}
		}
		if !near(float64(fr.Aggregates[query.AggMean]), fx.Decoded[i].Mean()) {
			t.Errorf("frame %d mean = %v", i, fr.Aggregates[query.AggMean])
		}
	}

	// Metric against a reference; self-comparison is exact.
	res, err = b.Query(ctx, &query.Request{
		Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: ptr(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != FrameCount || res.Frames[0].Metric == nil {
		t.Fatalf("metric result %+v", res)
	}
	if v := float64(*res.Frames[0].Metric); !near(v, 0) {
		t.Errorf("self-MSE = %g, want 0", v)
	}

	// Pairwise form over exactly two frames.
	res, err = b.Query(ctx, &query.Request{
		Select: query.Selector{To: ptr(2)},
		Metric: &query.MetricRequest{Kind: query.MetricDot},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pair == nil || res.Pair.A != 0 || res.Pair.B != 1 {
		t.Fatalf("pair result %+v", res.Pair)
	}
	if !near(float64(res.Pair.Value), fx.Decoded[0].Dot(fx.Decoded[1])) {
		t.Errorf("pair dot = %v", res.Pair.Value)
	}

	// Dataset-level reduction: the selection as one virtual array.
	res, err = b.Query(ctx, &query.Request{
		Reduce: []string{query.AggMean, query.AggMin, query.AggMax, query.AggL2Norm},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced == nil {
		t.Fatal("no reduced result")
	}
	var sum, sumSq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for _, f := range fx.Decoded {
		for _, v := range f.Data() {
			sum += v
			sumSq += v * v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			n++
		}
	}
	if res.Reduced.N != int64(n) || res.Reduced.Moments.Frames != FrameCount {
		t.Errorf("reduced state %+v, want n=%d frames=%d", res.Reduced.Moments, n, FrameCount)
	}
	for _, fr := range res.Frames {
		if want := fx.compressedSpace(fr.Label); fr.ExecutedInCompressedSpace != want {
			t.Errorf("reduce over frame %d: executedInCompressedSpace %v, want %v", fr.Label, fr.ExecutedInCompressedSpace, want)
		}
	}
	for kind, want := range map[string]float64{
		query.AggMean:   sum / float64(n),
		query.AggMin:    lo,
		query.AggMax:    hi,
		query.AggL2Norm: math.Sqrt(sumSq),
	} {
		if got := float64(res.Reduced.Values[kind]); !near(got, want) {
			t.Errorf("reduced %s = %g, want %g", kind, got, want)
		}
	}

	// Point read.
	res, err = b.Query(ctx, &query.Request{Point: []int{5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range res.Frames {
		if fr.Point == nil || !near(float64(*fr.Point), fx.Decoded[i].At(5, 6)) {
			t.Errorf("frame %d point %v, want %g", i, fr.Point, fx.Decoded[i].At(5, 6))
		}
	}
}

// testErrorContract checks that every failure classifies to its stable
// v1 code on every backend — over HTTP, through the sharded executor,
// and in process alike.
func testErrorContract(t *testing.T, b api.Backend) {
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
		want api.Code
	}{
		{"frame not found", func() error { _, err := b.Frame(ctx, 99); return err }, api.CodeNotFound},
		{"stats frame not found", func() error { _, err := b.Stats(ctx, 99, nil); return err }, api.CodeNotFound},
		{"region frame not found", func() error { _, err := b.Region(ctx, 99, []int{0, 0}, []int{1, 1}); return err }, api.CodeNotFound},
		{"unknown aggregate", func() error { _, err := b.Stats(ctx, 0, []string{"median"}); return err }, api.CodeBadRequest},
		{"region out of bounds", func() error { _, err := b.Region(ctx, 0, []int{Rows + 4, 0}, []int{4, 4}); return err }, api.CodeBadRequest},
		{"region dim mismatch", func() error { _, err := b.Region(ctx, 0, []int{1}, []int{2, 2}); return err }, api.CodeBadRequest},
		{"empty query", func() error { _, err := b.Query(ctx, &query.Request{}); return err }, api.CodeBadRequest},
		{"bad glob", func() error {
			_, err := b.Query(ctx, &query.Request{Select: query.Selector{Labels: "["}, Aggregates: []string{"mean"}})
			return err
		}, api.CodeBadRequest},
		{"selection matches nothing", func() error {
			_, err := b.Query(ctx, &query.Request{Select: query.Selector{Labels: "42"}, Aggregates: []string{"mean"}})
			return err
		}, api.CodeBadRequest},
		{"unknown reduce kind", func() error {
			_, err := b.Query(ctx, &query.Request{Reduce: []string{"median"}})
			return err
		}, api.CodeBadRequest},
		{"pairwise needs two frames", func() error {
			_, err := b.Query(ctx, &query.Request{Metric: &query.MetricRequest{Kind: query.MetricDot}})
			return err
		}, api.CodeBadRequest},
		{"metric reference not found", func() error {
			_, err := b.Query(ctx, &query.Request{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: ptr(99)}})
			return err
		}, api.CodeBadRequest},
	}
	for _, cse := range cases {
		err := cse.call()
		if err == nil {
			t.Errorf("%s: no error", cse.name)
			continue
		}
		if got := api.CodeOf(err); got != cse.want {
			t.Errorf("%s: code %s (%v), want %s", cse.name, got, err, cse.want)
		}
	}
}

func testCancellation(t *testing.T, b api.Backend) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Query(ctx, &query.Request{Aggregates: []string{query.AggMean}}); api.CodeOf(err) != api.CodeCanceled {
		t.Errorf("canceled query: %v", err)
	}
	if _, err := b.Frame(ctx, 0); api.CodeOf(err) != api.CodeCanceled {
		t.Errorf("canceled frame: %v", err)
	}
	if _, err := b.Spec(ctx); api.CodeOf(err) != api.CodeCanceled {
		t.Errorf("canceled spec: %v", err)
	}
}

func ptr(v int) *int { return &v }
