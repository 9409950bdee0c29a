package main

// End-to-end coverage for streaming ingest: the HTTP route through the
// SDK client against a live appendable store behind admission control,
// and the `goblaz ingest` subcommand against a local store path.

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/httpapi"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/store"
)

const ingestTestSpec = "goblaz:block=4x4,float=float64,index=int16"

func ingestTestFrame(label, rows, cols int) api.IngestFrame {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = math.Sin(float64(i)/9+float64(label)) + 0.2*float64(label)
	}
	return api.IngestFrame{Label: label, Shape: []int{rows, cols}, Data: data}
}

func TestServeIngestEndToEnd(t *testing.T) {
	// A live appendable store mounted as a dataset behind the admission
	// controller, driven purely through the SDK: ingest batches, watch
	// commits make frames queryable, and hit the duplicate-label guard.
	path := filepath.Join(t.TempDir(), "live.gbz")
	s, err := ingest.Create(path, ingest.Options{Spec: ingestTestSpec, CommitFrames: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	lim := api.Limit(s, api.LimitOptions{MaxConcurrent: 4, MaxQueue: 4})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: httpapi.New(lim, nil, httpapi.Options{
		Datasets: map[string]api.Backend{"live": lim},
	})}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c, err := api.NewClient(fmt.Sprintf("http://%s/v1/datasets/live", ln.Addr()), api.ClientOptions{
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := c.Ingest(ctx, []api.IngestFrame{ingestTestFrame(0, 8, 8), ingestTestFrame(1, 8, 8)})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Accepted != 2 || !res.Committed || res.Frames != 2 {
		t.Fatalf("first batch result = %+v, want 2 accepted and committed", res)
	}
	res, err = c.Ingest(ctx, []api.IngestFrame{ingestTestFrame(2, 8, 8)})
	if err != nil {
		t.Fatalf("ingest pending frame: %v", err)
	}
	if res.Committed || res.Pending != 1 {
		t.Fatalf("below-threshold batch result = %+v, want uncommitted with 1 pending", res)
	}

	// Only committed frames are visible to reads.
	infos, err := c.Frames(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("client sees %d frames, want 2 committed", len(infos))
	}
	fr, err := c.Frame(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ingestTestFrame(1, 8, 8)
	for i := range want.Data {
		if d := math.Abs(fr.Data[i] - want.Data[i]); d > 1e-3 { // codec is lossy
			t.Fatalf("frame 1 value %d off by %g", i, d)
		}
	}

	// Duplicate labels are rejected with a deterministic conflict —
	// this is what makes SDK retry replays safe.
	if _, err := c.Ingest(ctx, []api.IngestFrame{ingestTestFrame(0, 8, 8)}); api.CodeOf(err) != api.CodeConflict {
		t.Fatalf("duplicate label error = %v (%s), want %s", err, api.CodeOf(err), api.CodeConflict)
	}

	// An explicit commit surfaces the pending frame to queries.
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	qr, err := c.Query(ctx, &query.Request{
		Select:     query.Selector{Labels: "*"},
		Aggregates: []string{query.AggMean},
	})
	if err != nil {
		t.Fatalf("query after commit: %v", err)
	}
	if len(qr.Frames) != 3 {
		t.Fatalf("query sees %d frames after commit, want 3", len(qr.Frames))
	}
}

func TestIngestCLILocalStore(t *testing.T) {
	// `goblaz ingest` against a path creates the appendable store on
	// first use and appends on the next run, continuing the labels.
	dir := t.TempDir()
	storePath := filepath.Join(dir, "live.gbz")
	var files []string
	for i := 0; i < 3; i++ {
		f := ingestTestFrame(i, 4, 6)
		p := filepath.Join(dir, fmt.Sprintf("f%d.raw", i))
		writeRaw(t, p, f.Data)
		files = append(files, p)
	}

	out, err := captureStdout(t, func() error {
		return runIngest(append([]string{"-shape", "4,6", "-spec", ingestTestSpec, "-commit-every", "2", storePath}, files...))
	})
	if err != nil {
		t.Fatalf("ingest create run: %v", err)
	}
	if !strings.Contains(string(out), "ingested 3 frame(s)") {
		t.Errorf("unexpected ingest output: %s", out)
	}

	// Second run: no -spec needed, labels continue after the max.
	if _, err := captureStdout(t, func() error {
		return runIngest([]string{"-shape", "4,6", storePath, files[0]})
	}); err != nil {
		t.Fatalf("ingest append run: %v", err)
	}

	r, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	labels := map[int]bool{}
	for _, e := range r.Frames() {
		labels[e.Label] = true
	}
	for l := 0; l < 4; l++ {
		if !labels[l] {
			t.Errorf("store is missing label %d after two CLI runs (have %v)", l, labels)
		}
	}

	// A manifest or topology is not a store: the refusal names what the
	// file is instead of failing inside the store parser.
	manifest, _ := packShardedDataset(t, 4, 2)
	for _, tc := range []struct{ target, kind string }{
		{manifest, string(kindManifest)},
		{clusterTopologyFile(t, manifest, "runs"), string(kindTopology)},
	} {
		err := runIngest([]string{"-shape", "4,6", tc.target, files[0]})
		if err == nil || !strings.Contains(err.Error(), "is a "+tc.kind) || !strings.Contains(err.Error(), "read-only") {
			t.Errorf("ingest into a %s: got %v, want a refusal naming it", tc.kind, err)
		}
	}
}
