package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tune"
)

const tuneCandidates = "goblaz:block=8x8,float=float64,index=int16,transform=identity;zfp:rate=16"

// tuneInputs writes frames that alternate between a smooth ramp and a
// rough field, so -auto with a 1e-3 budget must produce a genuinely mixed
// assignment. The ramp goes to the default DCT goblaz codec, which stores
// only its few nonzero bin indices. On the rough field zfp blows the
// budget, and the identity-transform goblaz candidate, which bins values
// untransformed, is the smallest legal encoding.
func tuneInputs(t *testing.T, dir string, n int) []string {
	t.Helper()
	paths := make([]string, n)
	for k := 0; k < n; k++ {
		data := make([]float64, 16*16)
		for j := range data {
			x, y := float64(j%16), float64(j/16)
			if k%2 == 0 {
				data[j] = x/16 + y/16
			} else {
				data[j] = math.Sin(x*3.7+float64(k)) * math.Cos(y*2.9) * float64(1+j%5)
			}
		}
		paths[k] = filepath.Join(dir, "f"+string(rune('0'+k))+".f64")
		writeRaw(t, paths[k], data)
	}
	return paths
}

func TestTuneCLIWritesReport(t *testing.T) {
	dir := t.TempDir()
	inputs := tuneInputs(t, dir, 4)
	report := filepath.Join(dir, "tune.json")

	args := []string{"-shape", "16,16", "-candidates", tuneCandidates,
		"-max-err", "1e-3", "-report", report}
	if err := runTune(append(args, inputs...)); err != nil {
		t.Fatalf("tune: %v", err)
	}
	blob, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep tune.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	// The default pack codec always leads the candidate list, ahead of
	// the two -candidates specs.
	if len(rep.Frames) != 4 || len(rep.Candidates) != 3 {
		t.Fatalf("report shape: %d frames, %d candidates", len(rep.Frames), len(rep.Candidates))
	}
	chosen := map[string]bool{}
	for _, f := range rep.Frames {
		chosen[f.Chosen] = true
	}
	if len(chosen) != 2 {
		t.Errorf("assignment not mixed: %v", chosen)
	}
	if rep.AssignedBytes > rep.BestUniformBytes {
		t.Errorf("assigned %d > best uniform %d", rep.AssignedBytes, rep.BestUniformBytes)
	}
}

func TestPackAutoProducesMixedStore(t *testing.T) {
	dir := t.TempDir()
	inputs := tuneInputs(t, dir, 4)
	out := filepath.Join(dir, "auto.gbz")

	args := []string{"-shape", "16,16", "-auto",
		"-candidates", tuneCandidates, "-max-err", "1e-3", out}
	if err := runPack(append(args, inputs...)); err != nil {
		t.Fatalf("pack -auto: %v", err)
	}
	r, err := store.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.MixedCodec() {
		t.Fatalf("pack -auto wrote a uniform store: specs %v", r.Specs())
	}
	// Every frame decodes under its own codec, bit-exact vs that codec's
	// direct round trip.
	for i := 0; i < r.Len(); i++ {
		coder, err := r.FrameCoder(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Decompress(i)
		if err != nil {
			t.Fatal(err)
		}
		in, err := readTensor(inputs[r.Info(i).Label], []int{16, 16})
		if err != nil {
			t.Fatal(err)
		}
		c, err := coder.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := coder.Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.MaxAbsDiff(want) != 0 {
			t.Errorf("frame %d differs from direct %s round trip", i, r.FrameSpec(i))
		}
	}
	// inspect renders the mixed store (specs line + per-frame column).
	if err := runInspect([]string{out}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

func TestPackAutoSharded(t *testing.T) {
	dir := t.TempDir()
	inputs := tuneInputs(t, dir, 4)
	out := filepath.Join(dir, "auto.json")

	args := []string{"-shape", "16,16", "-auto", "-shards", "2",
		"-candidates", tuneCandidates, "-max-err", "1e-3", out}
	if err := runPack(append(args, inputs...)); err != nil {
		t.Fatalf("pack -auto -shards: %v", err)
	}
	ds, err := shard.Open(out, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if !ds.MixedCodec() {
		t.Fatalf("sharded pack -auto not mixed: specs %v", ds.Specs())
	}
	if err := runInspect([]string{out}); err != nil {
		t.Fatalf("inspect dataset: %v", err)
	}
}
