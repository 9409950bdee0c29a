package api

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

// buildLocal packs n smooth frames into an in-memory store and wraps it
// in a Local backend.
func buildLocal(t testing.TB, spec string, n, rows, cols int) (*Local, []*tensor.Tensor) {
	t.Helper()
	coder, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*tensor.Tensor, n)
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for k := range frames {
		f := tensor.New(rows, cols)
		for i := range f.Data() {
			f.Data()[i] = math.Sin(float64(i)/7+float64(k)) + 0.3*float64(k)
		}
		frames[k] = f
		c, err := coder.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return NewLocal(r, query.New(r, query.Options{}).Run), frames
}

const goblazSpec = "goblaz:block=4x4,float=float64,index=int16"

func TestHTTPStatusMapping(t *testing.T) {
	cases := map[Code]int{
		CodeBadRequest:   http.StatusBadRequest,
		CodeNotFound:     http.StatusNotFound,
		CodeNotSupported: http.StatusNotImplemented,
		CodeCanceled:     StatusClientClosedRequest,
		CodeOverloaded:   http.StatusTooManyRequests,
		CodeInternal:     http.StatusInternalServerError,
		Code("future"):   http.StatusInternalServerError,
	}
	for code, want := range cases {
		if got := HTTPStatus(code); got != want {
			t.Errorf("HTTPStatus(%s) = %d, want %d", code, got, want)
		}
	}
}

// TestErrorTableRoundTrips: every code of the error table maps to a
// status and a sentinel that both lead back to it, and the table names
// every code but the internal fallback, which round-trips through 500
// and has no sentinel.
func TestErrorTableRoundTrips(t *testing.T) {
	all := []Code{CodeBadRequest, CodeNotFound, CodeNotSupported, CodeCanceled,
		CodeConflict, CodeOverloaded, CodeUnavailable}
	listed := map[Code]bool{}
	for _, c := range codes {
		listed[c.code] = true
		if got := codeOfStatus(HTTPStatus(c.code)); got != c.code {
			t.Errorf("%s -> status %d -> %s", c.code, HTTPStatus(c.code), got)
		}
		if got := CodeOf(sentinelOf(c.code)); got != c.code {
			t.Errorf("%s -> sentinel %v -> %s", c.code, sentinelOf(c.code), got)
		}
	}
	for _, code := range all {
		if !listed[code] {
			t.Errorf("%s is not in the error table", code)
		}
	}
	if len(codes) != len(all) {
		t.Errorf("the error table has %d rows, want %d", len(codes), len(all))
	}
	if got := codeOfStatus(HTTPStatus(CodeInternal)); got != CodeInternal || sentinelOf(CodeInternal) != nil {
		t.Errorf("internal -> status %d -> %s, sentinel %v", HTTPStatus(CodeInternal), got, sentinelOf(CodeInternal))
	}
}

func TestFromErrorClassification(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{fmt.Errorf("wrap: %w", query.ErrBadRequest), CodeBadRequest},
		{fmt.Errorf("wrap: %w", ErrNotFound), CodeNotFound},
		{fmt.Errorf("wrap: %w", codec.ErrNotSupported), CodeNotSupported},
		{fmt.Errorf("wrap: %w", ErrOverloaded), CodeOverloaded},
		{context.Canceled, CodeCanceled},
		{context.DeadlineExceeded, CodeCanceled},
		{errors.New("disk on fire"), CodeInternal},
	}
	for _, cse := range cases {
		e := FromError(cse.err)
		if e.Code != cse.want {
			t.Errorf("FromError(%v).Code = %s, want %s", cse.err, e.Code, cse.want)
		}
		// The cause stays reachable for local callers.
		if !errors.Is(e, cse.err) {
			t.Errorf("FromError(%v) lost its cause", cse.err)
		}
	}
	if FromError(nil) != nil {
		t.Error("FromError(nil) should be nil")
	}
	// Already-classified errors pass through unchanged.
	orig := Errorf(CodeNotFound, "gone")
	if FromError(fmt.Errorf("wrap: %w", orig)) != orig {
		t.Error("FromError should unwrap to the existing *Error")
	}
	// Internal failures never ship their text in Message.
	if e := FromError(errors.New("secret path /etc/shadow")); e.Message != "internal error" || e.Detail != "" {
		t.Errorf("internal error leaked detail: %+v", e)
	}
	if CodeOf(errors.New("x")) != CodeInternal || CodeOf(nil) != "" {
		t.Error("CodeOf misclassified")
	}
}

func TestLocalBackend(t *testing.T) {
	l, frames := buildLocal(t, goblazSpec, 3, 16, 16)
	ctx := context.Background()

	info, err := l.Spec(ctx)
	if err != nil || info.Spec != l.src.Specs()[0] || info.Frames != 3 {
		t.Fatalf("Spec = %+v, %v", info, err)
	}

	idx, err := l.Frames(ctx)
	if err != nil || len(idx) != 3 {
		t.Fatalf("Frames = %v, %v", idx, err)
	}
	if idx[1].Label != 1 || idx[1].Length <= 0 || len(idx[1].CRC32) != 8 {
		t.Errorf("index entry %+v", idx[1])
	}
	// The O(1) resolver agrees with the full index.
	one, err := l.FrameInfo(ctx, 1)
	if err != nil || one != idx[1] {
		t.Errorf("FrameInfo(1) = %+v, %v, want %+v", one, err, idx[1])
	}
	if _, err := l.FrameInfo(ctx, 99); CodeOf(err) != CodeNotFound {
		t.Errorf("FrameInfo(99): %v", err)
	}

	f, err := l.Frame(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Shape) != 2 || f.Shape[0] != 16 || len(f.Data) != 256 {
		t.Fatalf("frame %v", f.Shape)
	}
	got := tensor.FromSlice(f.Data, f.Shape...)
	if got.MaxAbsDiff(frames[1]) > 1e-3 {
		t.Error("frame differs from original beyond quantization")
	}

	payload, err := l.Payload(ctx, 2)
	if err != nil || len(payload) == 0 {
		t.Fatalf("Payload = %d bytes, %v", len(payload), err)
	}

	st, err := l.Stats(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Aggregates) != len(AllAggregates) {
		t.Errorf("default stats %v", st.Aggregates)
	}
	if want := frames[0].Mean(); math.Abs(float64(st.Aggregates["mean"])-want) > 1e-4 {
		t.Errorf("mean = %g, want ≈ %g", st.Aggregates["mean"], want)
	}

	reg, err := l.Region(ctx, 0, []int{2, 3}, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Region == nil || len(reg.Region.Values) != 20 {
		t.Fatalf("region %+v", reg.Region)
	}

	res, err := l.Query(ctx, &query.Request{Aggregates: []string{query.AggMean}})
	if err != nil || len(res.Frames) != 3 {
		t.Fatalf("Query = %v, %v", res, err)
	}
}

// TestLocalFromBothConstructors: OpenLocal and OpenSharded return the
// same type; only the source's shard count tells them apart.
func TestLocalFromBothConstructors(t *testing.T) {
	cd, err := codec.Lookup(goblazSpec)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "ds.json")
	man, err := shard.WriteDatasetAssigned(manifest, cd, nil, []int{0, 1, 2, 3, 4, 5}, 3, 1,
		func(i int) (*tensor.Tensor, error) { return tensor.New(8, 8), nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		open       func(string, query.Options) (*Local, error)
		path       string
		wantShards int
	}{
		{OpenLocal, filepath.Join(filepath.Dir(manifest), man.Shards[0].Path), 0},
		{OpenSharded, manifest, 3},
	} {
		l, err := tc.open(tc.path, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if info, err := l.Spec(context.Background()); err != nil || info.Shards != tc.wantShards {
			t.Errorf("%s: Spec = %+v, %v; want %d shards", tc.path, info, err, tc.wantShards)
		}
		l.Close()
	}
}

func TestLocalBackendErrors(t *testing.T) {
	l, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	ctx := context.Background()

	if _, err := l.Frame(ctx, 99); CodeOf(err) != CodeNotFound {
		t.Errorf("missing frame: %v", err)
	}
	if _, err := l.Stats(ctx, 99, nil); CodeOf(err) != CodeNotFound {
		t.Errorf("missing stats frame: %v", err)
	}
	if _, err := l.Stats(ctx, 0, []string{"median"}); CodeOf(err) != CodeBadRequest {
		t.Errorf("unknown aggregate: %v", err)
	}
	if _, err := l.Region(ctx, 0, []int{20, 20}, []int{4, 4}); CodeOf(err) != CodeBadRequest {
		t.Errorf("out-of-bounds region: %v", err)
	}
	if _, err := l.Query(ctx, &query.Request{}); CodeOf(err) != CodeBadRequest {
		t.Errorf("empty query: %v", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := l.Query(canceled, &query.Request{Aggregates: []string{query.AggMean}}); CodeOf(err) != CodeCanceled {
		t.Errorf("canceled query: %v", err)
	}
	if _, err := l.Frame(canceled, 0); CodeOf(err) != CodeCanceled {
		t.Errorf("canceled frame: %v", err)
	}
}
