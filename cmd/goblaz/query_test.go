package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/query"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = wr
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		blob, _ := io.ReadAll(rd)
		done <- blob
	}()
	ferr := fn()
	wr.Close()
	return <-done, ferr
}

// packQueryStore packs a 3-frame goblaz store and returns its path.
func packQueryStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	inputs, _ := packInputs(t, dir, 3, 16, 16)
	out := filepath.Join(dir, "q.gbz")
	args := []string{"-shape", "16,16", "-codec", "goblaz:block=4x4,float=float64,index=int16", out}
	if err := runPack(append(args, inputs...)); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQueryCLIFlags(t *testing.T) {
	path := packQueryStore(t)
	blob, err := captureStdout(t, func() error {
		return runQuery([]string{"-aggs", "mean,stddev", "-labels", "[01]", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	var res query.Result
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("output is not result JSON: %v\n%s", err, blob)
	}
	if len(res.Frames) != 2 {
		t.Fatalf("selected %d frames, want 2", len(res.Frames))
	}
	if !res.ExecutedInCompressedSpace {
		t.Error("goblaz mean/stddev should run in compressed space")
	}
	for _, f := range res.Frames {
		if len(f.Aggregates) != 2 {
			t.Errorf("frame %d aggregates %v", f.Label, f.Aggregates)
		}
	}
}

func TestQueryCLIMetricAndRegion(t *testing.T) {
	path := packQueryStore(t)
	blob, err := captureStdout(t, func() error {
		return runQuery([]string{"-metric", "mse", "-against", "0", "-region", "2,3:4,4", "-point", "5,5", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	var res query.Result
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frames {
		if f.Metric == nil || f.Region == nil || f.Point == nil {
			t.Fatalf("frame %d missing results: %+v", f.Label, f)
		}
		if len(f.Region.Values) != 16 {
			t.Errorf("frame %d region has %d values, want 16", f.Label, len(f.Region.Values))
		}
	}
}

func TestQueryCLIRequestFile(t *testing.T) {
	path := packQueryStore(t)
	reqPath := filepath.Join(t.TempDir(), "req.json")
	req := `{"select":{"from":1,"to":3},"metric":{"kind":"psnr","peak":2}}`
	if err := os.WriteFile(reqPath, []byte(req), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := captureStdout(t, func() error {
		return runQuery([]string{"-req", "@" + reqPath, path})
	})
	if err != nil {
		t.Fatal(err)
	}
	var res query.Result
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	if res.Pair == nil || res.Pair.Kind != "psnr" || res.Pair.A != 1 || res.Pair.B != 2 {
		t.Errorf("pair = %+v", res.Pair)
	}
}

func TestQueryCLIErrors(t *testing.T) {
	path := packQueryStore(t)
	cases := [][]string{
		{},                        // no store
		{"-aggs", "mean"},         // still no store
		{"-aggs", "median", path}, // unknown aggregate
		{"-region", "1,2", path},  // missing :SHAPE
		{"-against", "banana", "-metric", "mse", path}, // bad label
		{"-req", `{"bananas":1}`, path},                // unknown field
		{"-req", `{"reduce":["mean"]} x`, path},        // trailing data
		{"-req", "@/does/not/exist", path},             // missing file
		{"-against", "0", "-aggs", "mean", path},       // -against without -metric
		{path},                                         // empty query
	}
	for _, args := range cases {
		if _, err := captureStdout(t, func() error { return runQuery(args) }); err == nil {
			t.Errorf("runQuery(%v) should fail", args)
		}
	}
}
