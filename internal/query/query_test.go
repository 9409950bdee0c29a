package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/codec"
	"repro/internal/store"
	"repro/internal/tensor"
)

// buildStore packs frames into an in-memory store and opens it.
func buildStore(t testing.TB, spec string, labels []int, frames []*tensor.Tensor) *store.Reader {
	t.Helper()
	b := storeBytes(t, spec, labels, frames)
	r, err := store.NewReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// storeBytes packs frames into a store file's bytes.
func storeBytes(t testing.TB, spec string, labels []int, frames []*tensor.Tensor) []byte {
	t.Helper()
	cd, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	coder, ok := cd.(codec.Coder)
	if !ok {
		t.Fatalf("codec %q is not a Coder", spec)
	}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for j, f := range frames {
		c, err := coder.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(labels[j], payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testFrames builds n smooth rows×cols frames with distinct content.
func testFrames(n, rows, cols int) []*tensor.Tensor {
	frames := make([]*tensor.Tensor, n)
	for k := range frames {
		t := tensor.New(rows, cols)
		for i := range t.Data() {
			t.Data()[i] = math.Sin(float64(i)/7+float64(k)) + 0.3*float64(k)
		}
		frames[k] = t
	}
	return frames
}

func seqLabels(n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	return labels
}

const goblazSpec = "goblaz:block=4x4,float=float64,index=int16"

func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= tol*scale
}

func TestAggregatesCompressedMatchesDecoded(t *testing.T) {
	r := buildStore(t, goblazSpec, seqLabels(4), testFrames(4, 20, 28))
	req := &Request{Aggregates: []string{AggMean, AggVariance, AggStdDev, AggL2Norm}}

	fast, err := New(r, Options{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.ExecutedInCompressedSpace {
		t.Error("goblaz aggregates should execute in compressed space")
	}
	slow, err := New(r, Options{ForceDecode: true}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ExecutedInCompressedSpace {
		t.Error("ForceDecode result should not claim compressed space")
	}
	if len(fast.Frames) != 4 || len(slow.Frames) != 4 {
		t.Fatalf("got %d/%d frames, want 4", len(fast.Frames), len(slow.Frames))
	}
	for i := range fast.Frames {
		for kind, v := range fast.Frames[i].Aggregates {
			w := float64(slow.Frames[i].Aggregates[kind])
			// The float64 codec is near-lossless; both paths see the
			// same array up to quantization.
			if !relClose(float64(v), w, 1e-6) {
				t.Errorf("frame %d %s: compressed %g vs decoded %g", i, kind, v, w)
			}
		}
	}
}

// TestMinMaxForceDecodeFallback: goblaz answers min and max — per frame
// and in a reduction — through codec.Extrema, in compressed space and bit
// for bit what ForceDecode's decode-then-scan answers.
func TestMinMaxForceDecodeFallback(t *testing.T) {
	r := buildStore(t, goblazSpec, seqLabels(3), testFrames(3, 13, 11))
	req := &Request{Aggregates: []string{AggMean, AggMin, AggMax}, Reduce: []string{AggMin, AggMax}}
	fast, err := New(r, Options{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.ExecutedInCompressedSpace {
		t.Error("goblaz min/max should run in compressed space")
	}
	slow, err := New(r, Options{ForceDecode: true}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ExecutedInCompressedSpace {
		t.Error("ForceDecode result should not claim compressed space")
	}
	same := func(what string, a, b Float) {
		t.Helper()
		if math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
			t.Errorf("%s: compressed %v, ForceDecode %v", what, a, b)
		}
	}
	for i, f := range fast.Frames {
		if !f.ExecutedInCompressedSpace || slow.Frames[i].ExecutedInCompressedSpace {
			t.Errorf("frame %d flags: compressed %v, ForceDecode %v", i, f.ExecutedInCompressedSpace, slow.Frames[i].ExecutedInCompressedSpace)
		}
		same(fmt.Sprintf("frame %d min", i), f.Aggregates[AggMin], slow.Frames[i].Aggregates[AggMin])
		same(fmt.Sprintf("frame %d max", i), f.Aggregates[AggMax], slow.Frames[i].Aggregates[AggMax])
		if f.Aggregates[AggMin] >= f.Aggregates[AggMax] {
			t.Errorf("frame %d: min %g should be below max %g", i, f.Aggregates[AggMin], f.Aggregates[AggMax])
		}
	}
	same("reduced min", fast.Reduced.Values[AggMin], slow.Reduced.Values[AggMin])
	same("reduced max", fast.Reduced.Values[AggMax], slow.Reduced.Values[AggMax])
}

// TestUndecidedExtremaDecode: a goblaz frame whose block bounds cannot
// settle min and max, or whose first coefficient is not its block mean
// (both: the identity transform), decodes, for every aggregate of the
// request, with the flag cleared — per frame and in a reduction, with or
// without extrema in the request.
func TestUndecidedExtremaDecode(t *testing.T) {
	r := buildStore(t, goblazSpec+",transform=identity", seqLabels(2), testFrames(2, 9, 9))
	for _, req := range []*Request{
		{Aggregates: []string{AggMean, AggMax}, Reduce: []string{AggMin}},
		{Aggregates: []string{AggMean}},
		{Reduce: []string{AggMean}},
		{Aggregates: []string{AggVariance, AggStdDev, AggL2Norm}, Reduce: []string{AggL2Norm, AggStdDev}},
	} {
		got, err := New(r, Options{}).Run(context.Background(), req)
		if err != nil {
			t.Fatalf("aggregates %v reduce %v: %v", req.Aggregates, req.Reduce, err)
		}
		want, err := New(r, Options{ForceDecode: true}).Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.ExecutedInCompressedSpace {
			t.Errorf("aggregates %v reduce %v: an undecided frame must decode; flag must be false", req.Aggregates, req.Reduce)
		}
		for i, f := range got.Frames {
			for kind, v := range f.Aggregates {
				if v != want.Frames[i].Aggregates[kind] {
					t.Errorf("frame %d %s = %v, ForceDecode %v", i, kind, v, want.Frames[i].Aggregates[kind])
				}
			}
		}
		if got.Reduced != nil {
			for kind, v := range got.Reduced.Values {
				if v != want.Reduced.Values[kind] {
					t.Errorf("reduced %s = %v, ForceDecode %v", kind, v, want.Reduced.Values[kind])
				}
			}
		}
	}
}

// TestCompressedAggsMatchOps: the aggregates and reduce state the engine
// derives from one codec.Moments call are, bit for bit, what the Ops
// entry points answer — mean, variance and l2norm per frame, stddev as
// √max(variance, 0), and a one-frame reduction's Σx = n·mean and
// Σx² = ‖x‖₂².
func TestCompressedAggsMatchOps(t *testing.T) {
	all := []string{AggMean, AggVariance, AggStdDev, AggL2Norm}
	for _, spec := range []string{
		goblazSpec,
		"goblaz:block=8x8,float=float32,index=int8",
		"goblaz:block=4x4,float=bfloat16,index=int32,keep=0.5,transform=haar",
		"goblaz:block=2x8,float=float16,index=int64,transform=walsh-hadamard",
	} {
		r := buildStore(t, spec, seqLabels(3), testFrames(3, 13, 19))
		coder, err := r.FrameCoder(0)
		if err != nil {
			t.Fatal(err)
		}
		ops := coder.(codec.Ops)
		e := New(r, Options{})
		for i := 0; i < r.Len(); i++ {
			from, to := i, i+1
			res, err := e.Run(context.Background(), &Request{Select: Selector{From: &from, To: &to}, Aggregates: all, Reduce: all})
			if err != nil {
				t.Fatal(err)
			}
			if !res.ExecutedInCompressedSpace {
				t.Errorf("%s frame %d: not answered in compressed space", spec, i)
			}
			c, err := r.Frame(i)
			if err != nil {
				t.Fatal(err)
			}
			mean, _ := ops.Mean(c)
			variance, _ := ops.Variance(c)
			l2, _ := ops.L2Norm(c)
			n := float64(res.Reduced.N)
			aggs := res.Frames[0].Aggregates
			for _, q := range []struct {
				name      string
				got, want Float
			}{
				{AggMean, aggs[AggMean], Float(mean)},
				{AggVariance, aggs[AggVariance], Float(variance)},
				{AggStdDev, aggs[AggStdDev], Float(math.Sqrt(math.Max(variance, 0)))},
				{AggL2Norm, aggs[AggL2Norm], Float(l2)},
				{"reduced sum", res.Reduced.Sum, Float(mean * n)},
				{"reduced sumSq", res.Reduced.SumSq, Float(l2 * l2)},
			} {
				if math.Float64bits(float64(q.got)) != math.Float64bits(float64(q.want)) {
					t.Errorf("%s frame %d %s = %v, Ops %v", spec, i, q.name, q.got, q.want)
				}
			}
		}
	}
}

// TestDecodedAggsOnePass: the one-pass decode fallback answers every
// aggregate bit for bit as the Tensor methods it replaced.
func TestDecodedAggsOnePass(t *testing.T) {
	x := testFrames(1, 17, 9)[0]
	want := map[string]float64{
		AggMean:     x.Mean(),
		AggVariance: x.Dot(x)/float64(x.Len()) - x.Mean()*x.Mean(),
		AggMin:      x.Min(),
		AggMax:      x.Max(),
		AggL2Norm:   x.Norm2(),
	}
	want[AggStdDev] = math.Sqrt(math.Max(want[AggVariance], 0))
	got, err := decodedMoments(x, true).values([]string{AggMean, AggVariance, AggStdDev, AggMin, AggMax, AggL2Norm})
	if err != nil {
		t.Fatal(err)
	}
	for kind, w := range want {
		if math.Float64bits(float64(got[kind])) != math.Float64bits(w) {
			t.Errorf("%s = %v, Tensor methods %v", kind, got[kind], w)
		}
	}
}

func TestDecodeFallbackCodecs(t *testing.T) {
	// Neither zfp nor blaz has Moments or Ops. Both must answer via
	// decode-then-compute with the flag cleared.
	for _, spec := range []string{"zfp:rate=32", "blaz"} {
		t.Run(spec, func(t *testing.T) {
			r := buildStore(t, spec, seqLabels(3), testFrames(3, 16, 16))
			e := New(r, Options{CacheBytes: 1 << 20})
			res, err := e.Run(context.Background(), &Request{Aggregates: []string{AggMean, AggStdDev}})
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecutedInCompressedSpace {
				t.Errorf("%s aggregates cannot run in compressed space", spec)
			}
			want, err := New(r, Options{ForceDecode: true}).Run(context.Background(), &Request{Aggregates: []string{AggMean, AggStdDev}})
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Frames {
				if res.Frames[i].Aggregates[AggMean] != want.Frames[i].Aggregates[AggMean] {
					t.Errorf("frame %d: fallback and ForceDecode disagree", i)
				}
			}
		})
	}
}

func TestMetricAgainstReference(t *testing.T) {
	frames := testFrames(3, 20, 20)
	r := buildStore(t, goblazSpec, seqLabels(3), frames)
	ref := 0
	for _, kind := range []string{MetricMSE, MetricPSNR, MetricDot, MetricCosine} {
		req := &Request{
			Select: Selector{Labels: "[12]"}, // frames 1 and 2; identical-frame PSNR is +Inf and not JSON-encodable
			Metric: &MetricRequest{Kind: kind, Against: &ref},
		}
		fast, err := New(r, Options{}).Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !fast.ExecutedInCompressedSpace {
			t.Errorf("%s: goblaz metric should run in compressed space", kind)
		}
		slow, err := New(r, Options{ForceDecode: true}).Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.Frames {
			if fast.Frames[i].Metric == nil || slow.Frames[i].Metric == nil {
				t.Fatalf("%s: missing metric value", kind)
			}
			if v, w := *fast.Frames[i].Metric, *slow.Frames[i].Metric; !relClose(float64(v), float64(w), 1e-6) {
				t.Errorf("%s frame %d: compressed %g vs decoded %g", kind, i, v, w)
			}
		}
	}
}

func TestPairMetric(t *testing.T) {
	r := buildStore(t, goblazSpec, seqLabels(3), testFrames(3, 16, 16))
	from, to := 1, 3
	req := &Request{
		Select: Selector{From: &from, To: &to},
		Metric: &MetricRequest{Kind: MetricMSE},
	}
	res, err := New(r, Options{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pair == nil {
		t.Fatal("pairwise request returned no pair result")
	}
	if res.Pair.A != 1 || res.Pair.B != 2 {
		t.Errorf("pair labels = %d, %d, want 1, 2", res.Pair.A, res.Pair.B)
	}
	if !res.Pair.ExecutedInCompressedSpace || res.Pair.Value <= 0 {
		t.Errorf("pair = %+v", res.Pair)
	}
	// Per-frame metric values are only set in vs-reference mode.
	for _, f := range res.Frames {
		if f.Metric != nil {
			t.Error("pair mode should not set per-frame metrics")
		}
	}
}

func TestRegionAndPointPartialDecode(t *testing.T) {
	frames := testFrames(2, 20, 28)
	r := buildStore(t, goblazSpec, seqLabels(2), frames)
	req := &Request{
		Region: &RegionRequest{Offset: []int{3, 5}, Shape: []int{7, 9}},
		Point:  []int{19, 27},
	}
	res, err := New(r, Options{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExecutedInCompressedSpace {
		t.Error("goblaz region/point reads should be block-local partial decodes")
	}
	slow, err := New(r, Options{ForceDecode: true}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Frames {
		a, b := res.Frames[i].Region, slow.Frames[i].Region
		if len(a.Values) != 7*9 || len(b.Values) != 7*9 {
			t.Fatalf("region sizes %d, %d, want %d", len(a.Values), len(b.Values), 7*9)
		}
		for j := range a.Values {
			// Partial decode is bit-exact against full decode + crop.
			if a.Values[j] != b.Values[j] {
				t.Fatalf("frame %d region value %d: %g vs %g", i, j, a.Values[j], b.Values[j])
			}
		}
		if *res.Frames[i].Point != *slow.Frames[i].Point {
			t.Errorf("frame %d point: %g vs %g", i, *res.Frames[i].Point, *slow.Frames[i].Point)
		}
	}
}

func TestRegionDecodeFallbackCrop(t *testing.T) {
	frames := testFrames(1, 16, 16)
	r := buildStore(t, "zfp:rate=32", seqLabels(1), frames)
	res, err := New(r, Options{}).Run(context.Background(), &Request{Region: &RegionRequest{Offset: []int{2, 3}, Shape: []int{4, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedInCompressedSpace {
		t.Error("zfp has no region reader; flag must be false")
	}
	full, err := r.Decompress(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if got, want := res.Frames[0].Region.Values[i*5+j], full.At(2+i, 3+j); got != want {
				t.Fatalf("region[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestSelector(t *testing.T) {
	r := buildStore(t, "zfp:rate=16", []int{10, 11, 12, 20, 21}, testFrames(5, 8, 8))
	cases := []struct {
		sel  Selector
		want []int // expected labels
	}{
		{Selector{}, []int{10, 11, 12, 20, 21}},
		{Selector{Labels: "1?"}, []int{10, 11, 12}},
		{Selector{Labels: "2*"}, []int{20, 21}},
		{Selector{Labels: "11"}, []int{11}},
		{Selector{From: ptr(1), To: ptr(3)}, []int{11, 12}},
		{Selector{Labels: "1?", From: ptr(2)}, []int{12}},
		{Selector{To: ptr(99)}, []int{10, 11, 12, 20, 21}}, // clamped
	}
	for _, cse := range cases {
		res, err := New(r, Options{}).Run(context.Background(), &Request{Select: cse.sel, Aggregates: []string{AggMean}})
		if err != nil {
			t.Fatalf("%+v: %v", cse.sel, err)
		}
		var got []int
		for _, f := range res.Frames {
			got = append(got, f.Label)
		}
		if len(got) != len(cse.want) {
			t.Fatalf("%+v selected %v, want %v", cse.sel, got, cse.want)
		}
		for i := range got {
			if got[i] != cse.want[i] {
				t.Fatalf("%+v selected %v, want %v", cse.sel, got, cse.want)
			}
		}
	}
}

func ptr(i int) *int { return &i }

func TestBadRequests(t *testing.T) {
	r := buildStore(t, goblazSpec, seqLabels(3), testFrames(3, 8, 8))
	e := New(r, Options{})
	cases := []struct {
		name string
		req  *Request
	}{
		{"nil", nil},
		{"empty", &Request{}},
		{"unknown aggregate", &Request{Aggregates: []string{"median"}}},
		{"unknown metric", &Request{Metric: &MetricRequest{Kind: "ssim"}}},
		{"pair needs two", &Request{Metric: &MetricRequest{Kind: MetricMSE}}},
		{"missing reference", &Request{Metric: &MetricRequest{Kind: MetricMSE, Against: ptr(99)}}},
		{"no match", &Request{Select: Selector{Labels: "9"}, Aggregates: []string{AggMean}}},
		{"bad glob", &Request{Select: Selector{Labels: "[unclosed"}, Aggregates: []string{AggMean}}},
		{"region dims", &Request{Region: &RegionRequest{Offset: []int{1}, Shape: []int{2, 2}}}},
		{"region bounds", &Request{Region: &RegionRequest{Offset: []int{6, 6}, Shape: []int{4, 4}}}},
		{"point bounds", &Request{Point: []int{8, 0}}},
		{"point dims", &Request{Point: []int{1, 2, 3}}},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			_, err := e.Run(context.Background(), cse.req)
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("error %v should wrap ErrBadRequest", err)
			}
		})
	}
	// The same out-of-bounds region must be a bad request on the
	// decode-fallback crop path too.
	zr := buildStore(t, "zfp:rate=16", seqLabels(1), testFrames(1, 8, 8))
	_, err := New(zr, Options{}).Run(context.Background(), &Request{Region: &RegionRequest{Offset: []int{6, 6}, Shape: []int{4, 4}}})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("fallback crop error %v should wrap ErrBadRequest", err)
	}
}

func TestCacheReuseAcrossQueries(t *testing.T) {
	r := buildStore(t, "zfp:rate=16", seqLabels(3), testFrames(3, 16, 16))
	e := New(r, Options{CacheBytes: 1 << 20})
	req := &Request{Aggregates: []string{AggMin}}
	if _, err := e.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := e.Cache().Stats()
	if st.Hits < 3 {
		t.Errorf("second identical query should hit the cache 3 times, stats %+v", st)
	}
	if st.Frames != 3 || st.Used != 3*16*16*8 {
		t.Errorf("cache should hold all 3 decoded frames, stats %+v", st)
	}
}

func TestCompressedQueryNeverDecodes(t *testing.T) {
	// A compressed-space aggregate query must not populate the decoded
	// LRU — that is what "answers without decoding frames" means.
	r := buildStore(t, goblazSpec, seqLabels(3), testFrames(3, 16, 16))
	e := New(r, Options{CacheBytes: 1 << 20})
	res, err := e.Run(context.Background(), &Request{Aggregates: []string{AggMean, AggVariance}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExecutedInCompressedSpace {
		t.Fatal("expected compressed-space execution")
	}
	if st := e.Cache().Stats(); st.Frames != 0 || st.Misses != 0 {
		t.Errorf("compressed query touched the decode cache: %+v", st)
	}
}

func TestPlanFrames(t *testing.T) {
	r := buildStore(t, "zfp:rate=16", seqLabels(4), testFrames(4, 8, 8))
	p, err := Compile(r, &Request{Select: Selector{From: ptr(1)}, Aggregates: []string{AggMean}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Frames(); len(got) != 3 || got[0] != 1 {
		t.Errorf("Frames() = %v", got)
	}
}

func TestInfiniteMetricSurvivesJSON(t *testing.T) {
	// PSNR of a frame against itself is +Inf; the result must encode
	// and decode as JSON instead of failing the whole query's response.
	r := buildStore(t, goblazSpec, seqLabels(2), testFrames(2, 8, 8))
	ref := 0
	res, err := New(r, Options{}).Run(context.Background(), &Request{
		Metric: &MetricRequest{Kind: MetricPSNR, Against: &ref},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := *res.Frames[0].Metric; !math.IsInf(float64(v), 1) {
		t.Fatalf("self-PSNR = %g, want +Inf", v)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result with +Inf must marshal: %v", err)
	}
	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if v := *back.Frames[0].Metric; !math.IsInf(float64(v), 1) {
		t.Errorf("round-tripped self-PSNR = %g, want +Inf", v)
	}
	if v := *back.Frames[1].Metric; math.IsInf(float64(v), 0) || v <= 0 {
		t.Errorf("finite PSNR came back as %g", v)
	}
}

func TestFloatJSON(t *testing.T) {
	for _, v := range []float64{1.5, 0, -2.25, math.Inf(1), math.Inf(-1), math.NaN()} {
		blob, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("marshal %g: %v", v, err)
		}
		var back Float
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if g, w := float64(back), v; g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("%g round-tripped to %g via %s", w, g, blob)
		}
	}
	var f Float
	if err := json.Unmarshal([]byte(`"banana"`), &f); err == nil {
		t.Error("bad Float string should fail to unmarshal")
	}
}

func TestFallbackMetricWithColdCache(t *testing.T) {
	// A vs-reference metric on a no-Ops codec with the cache disabled:
	// the decoded reference is hoisted out of the fan-out, so the query
	// still answers (and in one decode of the reference, not N).
	r := buildStore(t, "zfp:rate=32", seqLabels(3), testFrames(3, 16, 16))
	ref := 0
	res, err := New(r, Options{}).Run(context.Background(), &Request{
		Select: Selector{Labels: "[12]"},
		Metric: &MetricRequest{Kind: MetricMSE, Against: &ref},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedInCompressedSpace {
		t.Error("zfp metrics cannot run in compressed space")
	}
	for _, f := range res.Frames {
		if f.Metric == nil || *f.Metric <= 0 {
			t.Errorf("frame %d metric = %v", f.Label, f.Metric)
		}
	}
}

func TestPairMetricDecodeFallbackFlags(t *testing.T) {
	// A pair metric that falls back to decode must clear the per-frame
	// flags too: both selected frames were fully decompressed.
	r := buildStore(t, "zfp:rate=32", seqLabels(2), testFrames(2, 8, 8))
	res, err := New(r, Options{}).Run(context.Background(), &Request{Metric: &MetricRequest{Kind: MetricMSE}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pair == nil || res.Pair.ExecutedInCompressedSpace {
		t.Fatalf("pair = %+v, want decode fallback", res.Pair)
	}
	for _, f := range res.Frames {
		if f.ExecutedInCompressedSpace {
			t.Errorf("frame %d claims compressed space but was decoded for the pair metric", f.Label)
		}
	}
}

func TestBlazMetricFallbackSharesReference(t *testing.T) {
	// blaz has no Ops, so every vs-reference metric decodes; the
	// memoized reference decode must serve all frames (one miss for the
	// reference, one per selected frame — not one reference decode per
	// frame).
	r := buildStore(t, "blaz", seqLabels(4), testFrames(4, 16, 16))
	e := New(r, Options{CacheBytes: 1 << 20})
	ref := 0
	res, err := e.Run(context.Background(), &Request{
		Select: Selector{Labels: "[123]"},
		Metric: &MetricRequest{Kind: MetricMSE, Against: &ref},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedInCompressedSpace {
		t.Error("blaz metrics cannot run in compressed space")
	}
	for _, f := range res.Frames {
		if f.Metric == nil || *f.Metric <= 0 {
			t.Errorf("frame %d metric = %v", f.Label, f.Metric)
		}
	}
	if st := e.Cache().Stats(); st.Misses > 4 {
		t.Errorf("reference frame re-decoded per frame: %+v", st)
	}
}

// cancelingReaderAt wraps a store image and fires cancel on the first
// ReadAt after arm() — i.e. on the first frame payload read — the way a
// client disconnect lands mid-plan, after compilation but before most
// frames have run.
type cancelingReaderAt struct {
	r      io.ReaderAt
	armed  atomic.Bool
	cancel context.CancelFunc
}

func (c *cancelingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if c.armed.Load() {
		c.cancel()
	}
	return c.r.ReadAt(p, off)
}

// buildCancelStore packs n frames and returns a reader whose next
// post-open payload read cancels ctx.
func buildCancelStore(t *testing.T, n int) (*store.Reader, *cancelingReaderAt, context.Context, context.CancelFunc) {
	t.Helper()
	cd, err := codec.Lookup("zfp:rate=32")
	if err != nil {
		t.Fatal(err)
	}
	coder := cd.(codec.Coder)
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for j, f := range testFrames(n, 16, 16) {
		c, err := coder.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(j, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cra := &cancelingReaderAt{r: bytes.NewReader(buf.Bytes()), cancel: cancel}
	r, err := store.NewReader(cra, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return r, cra, ctx, cancel
}

func TestRunCanceledMidPlan(t *testing.T) {
	// Cancellation arriving while the fan-out is in flight must surface
	// context.Canceled, not a partial result.
	r, cra, ctx, cancel := buildCancelStore(t, 16)
	defer cancel()
	cra.armed.Store(true) // next payload read cancels
	_, err := New(r, Options{}).Run(ctx, &Request{Aggregates: []string{AggMin}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-plan cancel returned %v, want context.Canceled", err)
	}
}

func TestRunPreCanceledDoesNoWork(t *testing.T) {
	r, _, ctx, cancel := buildCancelStore(t, 8)
	cancel()
	_, err := New(r, Options{}).Run(ctx, &Request{Aggregates: []string{AggMean}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Run returned %v, want context.Canceled", err)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	r := buildStore(t, "zfp:rate=16", seqLabels(2), testFrames(2, 8, 8))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := New(r, Options{}).Run(ctx, &Request{Aggregates: []string{AggMean}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

func TestDecodeJSONRejectsTrailingData(t *testing.T) {
	for _, body := range []string{`{"reduce":["mean"]}`, "{\"reduce\":[\"mean\"]}\n", " {\"reduce\":[\"mean\"]} \r\n\t "} {
		var req Request
		if err := DecodeJSON(strings.NewReader(body), &req); err != nil || len(req.Reduce) != 1 {
			t.Errorf("%q: %v, %+v", body, err, req)
		}
	}
	for _, body := range []string{
		`{"reduce":["mean"]}{"aggregates":["bogus"]} trailing garbage`,
		`{"reduce":["mean"]} x`,
		`{"reduce":["mean"]}}`,
		`{"reduce":["mean"]} 1`,
		`{"bogus":1}`,
		``,
	} {
		if err := DecodeJSON(strings.NewReader(body), &Request{}); err == nil {
			t.Errorf("%q decoded", body)
		}
	}
	// A read failure after the value is the caller's to classify.
	r := io.MultiReader(strings.NewReader(`{} `), iotest.ErrReader(io.ErrUnexpectedEOF))
	if err := DecodeJSON(r, &Request{}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("read error after the value = %v, want it wrapped", err)
	}
}
