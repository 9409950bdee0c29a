package query_test

// FuzzCompile — the request parser/validator under arbitrary JSON. The
// contract: whatever bytes arrive at POST /v1/query, Compile (and
// Execute, for plans that validate) must never panic and every failure
// must classify to a caller-side v1 code (bad_request), never internal
// — a fuzzer-shaped request is always the caller's fault.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

// buildFuzzStore packs two tiny frames into an in-memory store.
func buildFuzzStore(tb testing.TB) *store.Reader {
	tb.Helper()
	coder, err := codec.Lookup("goblaz:block=4x4,float=float64,index=int16")
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, coder.Spec())
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		f := tensor.New(8, 8)
		for i := range f.Data() {
			f.Data()[i] = float64(i%7) + float64(k)
		}
		c, err := coder.Compress(f)
		if err != nil {
			tb.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.Append(k, payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	r, err := store.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func FuzzCompile(f *testing.F) {
	// Seeds: the README grammar examples plus structured near-misses.
	for _, seed := range []string{
		`{"select":{"labels":"1?","from":0,"to":8},"aggregates":["mean","variance","stddev","min","max","l2norm"],"metric":{"kind":"mse","against":0,"peak":1},"region":{"offset":[3,5],"shape":[7,9]},"point":[10,12]}`,
		`{"select":{},"aggregates":["mean"]}`,
		`{"aggregates":["median"]}`,
		`{"reduce":["mean","l2norm"]}`,
		`{"reduce":["bogus"]}`,
		`{"select":{"labels":"["},"aggregates":["mean"]}`,
		`{"metric":{"kind":"psnr","peak":-1,"against":0}}`,
		`{"metric":{"kind":"dot"}}`,
		`{"region":{"offset":[1],"shape":[2,2]}}`,
		`{"region":{"offset":[-1,-1],"shape":[100000,100000]}}`,
		`{"point":[99,99,99]}`,
		`{"select":{"from":-5,"to":1000000}}`,
		`{}`,
		`null`,
		`[1,2,3]`,
		"{\"select\":{\"labels\":\"\u0000*\"}}",
	} {
		f.Add([]byte(seed))
	}

	r := buildFuzzStore(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req query.Request
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a request; the HTTP layer rejects it earlier
		}
		p, err := query.Compile(r, &req)
		if err != nil {
			// Every validation failure must be the caller's.
			if code := api.CodeOf(err); code != api.CodeBadRequest {
				t.Fatalf("Compile(%s) classified as %s: %v", data, code, err)
			}
			return
		}
		// Valid plans must execute without panicking; runtime failures
		// must still classify (bounds errors are bad_request, decode
		// problems would be internal — but never a panic).
		eng := query.New(r, query.Options{})
		if _, err := eng.Execute(context.Background(), p); err != nil {
			if code := api.CodeOf(err); code != api.CodeBadRequest {
				t.Fatalf("Execute(%s) classified as %s: %v", data, code, err)
			}
		}
	})
}
