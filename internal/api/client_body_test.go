package api_test

// The SDK's binary reads: Frame decodes the float64 body straight into
// the frame, Payload reads into one buffer of the declared length, and
// a body that disagrees with its declared size is an error either way.

import (
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/api"
)

// bodyServer answers every GET with body; declared ≥ 0 sets
// Content-Length to it, < 0 streams the body chunked (length unknown).
func bodyServer(t *testing.T, shape string, body []byte, declared int) *api.Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Goblaz-Shape", shape)
		if declared >= 0 {
			w.Header().Set("Content-Length", strconv.Itoa(declared))
		}
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client(), Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func floatBytes(n int) ([]byte, []float64) {
	vals := make([]float64, n)
	raw := make([]byte, 8*n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * 1e-300
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(vals[i]))
	}
	vals[0] = math.Copysign(0, -1)
	binary.LittleEndian.PutUint64(raw, math.Float64bits(vals[0]))
	return raw, vals
}

func TestClientFrameBody(t *testing.T) {
	// 3×300 values cross the decode chunk many times and end mid-chunk.
	raw, vals := floatBytes(900)
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		body     []byte
		declared int
		ok       bool
	}{
		{"declared", raw, len(raw), true},
		{"streamed", raw, -1, true},
		{"declared length disagrees with shape", raw[:len(raw)-8], len(raw) - 8, false},
		{"streamed short", raw[:len(raw)-8], -1, false},
		{"streamed short mid-value", raw[:len(raw)-3], -1, false},
		{"streamed long", append(raw[:len(raw):len(raw)], 0, 0, 0, 0, 0, 0, 0, 0), -1, false},
	} {
		f, err := bodyServer(t, "3,300", tc.body, tc.declared).Frame(ctx, 1)
		if !tc.ok {
			if api.CodeOf(err) != api.CodeInternal {
				t.Errorf("%s: err = %v, want internal", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Label != 1 || len(f.Shape) != 2 || f.Shape[0] != 3 || f.Shape[1] != 300 || len(f.Data) != len(vals) {
			t.Fatalf("%s: frame %d shape %v with %d values", tc.name, f.Label, f.Shape, len(f.Data))
		}
		for i := range vals {
			if math.Float64bits(f.Data[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s: value %d = %v, want %v", tc.name, i, f.Data[i], vals[i])
			}
		}
	}
	// A shape whose byte count overflows is refused before allocating.
	if _, err := bodyServer(t, "4294967296,4294967296", nil, 0).Frame(ctx, 1); api.CodeOf(err) != api.CodeInternal {
		t.Errorf("overflowing shape: err = %v", err)
	}
}

func TestClientPayloadBody(t *testing.T) {
	raw, _ := floatBytes(700)
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		body     []byte
		declared int
		ok       bool
	}{
		{"declared", raw, len(raw), true},
		{"streamed", raw, -1, true},
		{"empty", nil, 0, true},
		{"declared longer than sent", raw[:100], 200, false},
	} {
		got, err := bodyServer(t, "1", tc.body, tc.declared).Payload(ctx, 1)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: no error", tc.name)
			}
			continue
		}
		if err != nil || string(got) != string(tc.body) {
			t.Errorf("%s: %d bytes, %v; want the %d sent", tc.name, len(got), err, len(tc.body))
		}
	}
}

// Result bodies are read into one buffer and decoded by query's readers:
// the server's layout without reflection, any other body as a
// json.Decoder reads it, so the client accepts what it always accepted
// — whitespace, reordered, escaped and unknown keys, trailing data after
// the value — and still refuses what is not a result.
func TestClientResultBody(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, body string
		declared   int
		ok         bool
	}{
		{"canonical", `{"index":1,"label":4,"aggregates":{"mean":0.5},"executedInCompressedSpace":true}`, -2, true},
		{"streamed", `{"index":1,"label":4,"aggregates":{"mean":0.5},"executedInCompressedSpace":true}`, -1, true},
		{"reordered with unknown keys", ` {"executedInCompressedSpace":true,"x":[1,{"y":null}],"aggregates":{"mean":5e-1},"label":4,"index":1}`, -2, true},
		{"escaped key", `{"ind\u0065x":1,"label":4,"aggregates":{"mean":0.5},"executedInCompressedSpace":true}`, -2, true},
		{"case-folded key", `{"INDEX":1,"Label":4,"aggregates":{"mean":0.5},"executedInCompressedSpace":true}`, -2, true},
		{"trailing data", `{"index":1,"label":4,"aggregates":{"mean":0.5},"executedInCompressedSpace":true} trailing`, -2, true},
		{"not JSON", `{"index":`, -2, false},
		{"wrong type", `{"index":"1"}`, -2, false},
		{"declared longer than sent", `{"index":1}`, 40, false},
	} {
		declared := tc.declared
		if declared == -2 {
			declared = len(tc.body)
		}
		fr, err := bodyServer(t, "1", []byte(tc.body), declared).Stats(ctx, 4, nil)
		if !tc.ok {
			if api.CodeOf(err) != api.CodeInternal {
				t.Errorf("%s: err = %v, want internal", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fr.Index != 1 || fr.Label != 4 || fr.Aggregates["mean"] != 0.5 || !fr.ExecutedInCompressedSpace {
			t.Errorf("%s: decoded %+v", tc.name, fr)
		}
	}
}
