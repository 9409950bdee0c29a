package httpapi

// POST /v1/frames over a real ingest.Store: the binary body the SDK
// sends, the NDJSON body other producers post, and proof the two agree.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/data"
	"repro/internal/ingest"
)

const ingestSpec = "goblaz:block=4x4,float=float64,index=int16"

// recorder forwards to an ingest.Store and keeps a copy of every batch
// the handler parsed, so a test can compare what crossed the wire.
type recorder struct {
	*ingest.Store
	mu      sync.Mutex
	batches [][]api.IngestFrame
}

func (r *recorder) Ingest(ctx context.Context, frames []api.IngestFrame) (*api.IngestResult, error) {
	r.mu.Lock()
	r.batches = append(r.batches, frames)
	r.mu.Unlock()
	return r.Store.Ingest(ctx, frames)
}

// ingestServer serves a fresh appendable store with default options.
func ingestServer(t *testing.T, commitFrames int) (*recorder, *httptest.Server) {
	t.Helper()
	s, err := ingest.Create(filepath.Join(t.TempDir(), "live.gbz"), ingest.Options{Spec: ingestSpec, CommitFrames: commitFrames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rec := &recorder{Store: s}
	srv := httptest.NewServer(New(rec, nil, Options{}))
	t.Cleanup(srv.Close)
	return rec, srv
}

func post(t *testing.T, srv *httptest.Server, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/frames", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func ndjson(t *testing.T, frames []api.IngestFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestIngestFullFrameThroughDefaultLimit(t *testing.T) {
	// A 256² frame is ≈ 1.3 MB as NDJSON, past the default 1 MiB body
	// limit; as raw float64 bits it is 524 315 bytes.
	rec, srv := ingestServer(t, 1)
	c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client(), Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	g := data.Gradient(256, 256)
	res, err := c.Ingest(context.Background(), []api.IngestFrame{{Label: 1, Shape: g.Shape(), Data: g.Data()}})
	if err != nil {
		t.Fatalf("256² frame through a default server: %v", err)
	}
	if res.Accepted != 1 || !res.Committed || res.Frames != 1 {
		t.Errorf("result = %+v", res)
	}
	if got := rec.batches[0][0].Data; !bitsEqual(got, g.Data()) {
		t.Error("the frame the store received differs from the one sent")
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestIngestNDJSONBodies(t *testing.T) {
	// NDJSON stays the contract for producers that are not the Go SDK.
	_, srv := ingestServer(t, 0)
	frame := func(label int) string {
		return fmt.Sprintf(`{"label":%d,"shape":[4,4],"data":[%s0.5]}`, label, strings.Repeat("0.5,", 15))
	}
	for _, tc := range []struct {
		name, body string
		status     int
		accepted   int
		msg        string
	}{
		{"single object", frame(1), 200, 1, ""},
		{"batch", frame(2) + "\n" + frame(3) + "\n" + frame(4) + "\n", 200, 3, ""},
		{"unknown field", `{"label":5,"shape":[1],"data":[1],"color":"red"}`, 400, 0, "unknown field"},
		{"empty", "", 400, 0, "empty ingest batch"},
		// A top-level `]` or `}` once ended the batch early and silently:
		// the frames before it were ingested and the rest dropped.
		{"stray bracket between frames", frame(6) + "]" + frame(7), 400, 0, "bad ingest frame JSON"},
		{"stray brace and trailing text", frame(8) + "} trailing", 400, 0, "bad ingest frame JSON"},
		{"leading bracket", "]" + frame(9), 400, 0, "bad ingest frame JSON"},
	} {
		resp := post(t, srv, "application/x-ndjson", []byte(tc.body))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if tc.status != 200 {
			if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest || !strings.Contains(e.Message, tc.msg) {
				t.Errorf("%s: error %+v, want bad_request containing %q", tc.name, e, tc.msg)
			}
			continue
		}
		var res api.IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || res.Accepted != tc.accepted {
			t.Errorf("%s: result %+v, %v; want %d accepted", tc.name, res, err, tc.accepted)
		}
		resp.Body.Close()
	}
}

// parityBatch holds −0, a subnormal and 1e300 beside ordinary
// values, and a frame under its own spec.
func parityBatch() []api.IngestFrame {
	a := data.Gradient(8, 12)
	frames := []api.IngestFrame{
		{Label: 10, Shape: a.Shape(), Data: a.Data()},
		{Label: 11, Shape: []int{4, 4}, Spec: "zfp:rate=16", Data: make([]float64, 16)},
		{Label: 12, Shape: []int{8, 4}, Data: make([]float64, 32)},
	}
	for i := range frames[1].Data {
		frames[1].Data[i] = math.Sin(float64(i))
	}
	for i := range frames[2].Data {
		frames[2].Data[i] = float64(i) / 3
	}
	frames[0].Data[0] = math.Copysign(0, -1)
	frames[0].Data[1] = math.SmallestNonzeroFloat64
	frames[0].Data[2] = 1e300
	frames[2].Data[5] = math.Copysign(0, -1)
	return frames
}

func TestIngestBodiesAgree(t *testing.T) {
	// The same batch as NDJSON into one store and as the binary body
	// into another: same result, same frames received, same committed
	// payload bytes, same decompressed bits.
	batch := parityBatch()
	bin, err := api.AppendFrames(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	type side struct {
		rec  *recorder
		srv  *httptest.Server
		res  api.IngestResult
		ct   string
		body []byte
	}
	sides := []*side{
		{ct: "application/x-ndjson", body: ndjson(t, batch)},
		{ct: api.FramesContentType + "; charset=binary", body: bin},
	}
	for _, s := range sides {
		s.rec, s.srv = ingestServer(t, len(batch))
		resp := post(t, s.srv, s.ct, s.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %+v", s.ct, resp.StatusCode, decodeEnvelope(t, resp))
		}
		if err := json.NewDecoder(resp.Body).Decode(&s.res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	nd, bn := sides[0], sides[1]
	if nd.res != bn.res || !bn.res.Committed {
		t.Fatalf("results differ: ndjson %+v, binary %+v", nd.res, bn.res)
	}
	for i, f := range batch {
		for _, s := range sides {
			if got := s.rec.batches[0][i]; got.Label != f.Label || got.Spec != f.Spec || !bitsEqual(got.Data, f.Data) {
				t.Errorf("%s: frame %d arrived changed", s.ct, i)
			}
		}
		ctx := context.Background()
		pn, err1 := nd.rec.Payload(ctx, f.Label)
		pb, err2 := bn.rec.Payload(ctx, f.Label)
		if err1 != nil || err2 != nil || !bytes.Equal(pn, pb) {
			t.Errorf("label %d: committed payloads differ (%v, %v)", f.Label, err1, err2)
		}
		fn, err1 := nd.rec.Frame(ctx, f.Label)
		fb, err2 := bn.rec.Frame(ctx, f.Label)
		if err1 != nil || err2 != nil || !bitsEqual(fn.Data, fb.Data) {
			t.Errorf("label %d: decompressed values differ (%v, %v)", f.Label, err1, err2)
		}
	}

	// A frame the store refuses gets the same message through both.
	for _, bad := range []api.IngestFrame{
		{Label: 20, Shape: []int{0, 4}},
		{Label: 21, Shape: []int{1}, Data: []float64{1}, Spec: "nosuchcodec"},
	} {
		bin, err := api.AppendFrames(nil, []api.IngestFrame{bad})
		if err != nil {
			t.Fatal(err)
		}
		en := decodeEnvelope(t, post(t, nd.srv, "application/x-ndjson", ndjson(t, []api.IngestFrame{bad})))
		eb := decodeEnvelope(t, post(t, bn.srv, api.FramesContentType, bin))
		if *en != *eb || en.Code != api.CodeBadRequest {
			t.Errorf("label %d: ndjson %+v, binary %+v", bad.Label, en, eb)
		}
	}
}

func TestIngestRejectsNonFinite(t *testing.T) {
	rec, srv := ingestServer(t, 1)
	c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client(), Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := c.Ingest(context.Background(), []api.IngestFrame{{Label: 1, Shape: []int{2}, Data: []float64{0, v}}})
		if api.CodeOf(err) != api.CodeBadRequest {
			t.Errorf("Ingest of %v = %v, want bad_request", v, err)
		}
	}
	if len(rec.batches) != 0 {
		t.Errorf("a non-finite batch reached the store")
	}

	// A hand-built body holding NaN is refused by the parser.
	body, _ := api.AppendFrames(nil, []api.IngestFrame{{Label: 1, Shape: []int{2}, Data: []float64{0, 1}}})
	copy(body[len(body)-8:], []byte{1, 0, 0, 0, 0, 0, 0xF8, 0x7F})
	resp := post(t, srv, api.FramesContentType, body)
	if resp.StatusCode != 400 {
		t.Fatalf("NaN body = %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest {
		t.Errorf("NaN body code = %s", e.Code)
	}
}

func TestIngestMalformedBinaryBody(t *testing.T) {
	// Every malformed body is the caller's fault — 400, never 500 — and
	// reserves no label: the intact batch goes in afterwards.
	rec, srv := ingestServer(t, 1)
	batch := parityBatch()
	good, err := api.AppendFrames(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"magic":    append([]byte("XBF"), good[3:]...),
		"version":  append([]byte("GBF\x02"), good[4:]...),
		"trailing": append(bytes.Clone(good), 0),
		"count":    append(append([]byte("GBF\x01"), 0xFF, 0xFF, 0xFF, 0xFF), good[8:]...),
	}
	for _, n := range []int{0, 3, 8, 16, 17, 40, len(good) / 2, len(good) - 1} {
		bad[fmt.Sprintf("cut to %d", n)] = good[:n]
	}
	for name, body := range bad {
		resp := post(t, srv, api.FramesContentType, body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest {
			t.Errorf("%s: code %s", name, e.Code)
		}
	}
	if len(rec.batches) != 0 {
		t.Fatalf("%d malformed bodies reached the store", len(rec.batches))
	}
	resp := post(t, srv, api.FramesContentType, good)
	if resp.StatusCode != 200 {
		t.Fatalf("intact batch after the malformed ones = %d: %+v", resp.StatusCode, decodeEnvelope(t, resp))
	}
	resp.Body.Close()
}

// FuzzReadNDJSON: the NDJSON ingest body is input from outside the
// program. readNDJSON must never panic, and a body it accepts must hold
// frames that re-marshal one by one and read back equal.
func FuzzReadNDJSON(f *testing.F) {
	frame := func(label int) string {
		return fmt.Sprintf(`{"label":%d,"shape":[2,2],"data":[0.5,-0,1e300,5e-324]}`, label)
	}
	f.Add([]byte(frame(1) + "]" + frame(2)))
	f.Add([]byte(frame(3) + "} trailing"))
	f.Add([]byte("]" + frame(4)))
	f.Add([]byte(frame(5) + "\n" + `{"label":6,"shape":[3],"data":[1,2,3],"spec":"zfp:rate=16"}` + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		frames, err := readNDJSON(bytes.NewReader(body))
		if err != nil {
			return
		}
		for i, fr := range frames {
			line, err := json.Marshal(fr)
			if err != nil {
				t.Fatalf("frame %d: marshal: %v", i, err)
			}
			back, err := readNDJSON(bytes.NewReader(line))
			if err != nil || len(back) != 1 {
				t.Fatalf("frame %d: %s read back as %d frames, %v", i, line, len(back), err)
			}
			b := back[0]
			if b.Label != fr.Label || b.Spec != fr.Spec || !slices.Equal(b.Shape, fr.Shape) ||
				(b.Data == nil) != (fr.Data == nil) || !bitsEqual(b.Data, fr.Data) {
				t.Fatalf("frame %d: %+v read back as %+v", i, fr, b)
			}
		}
	})
}
