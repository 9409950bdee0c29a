package cluster

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

// TestSpecIDsIndexSpecs: on every tier that serves frames — a store
// file, a dataset over two of them, and a coordinator over the same two
// served over HTTP — a frame's SpecID indexes that tier's own spec
// table, and the spec it names is the one the frame was written under.
func TestSpecIDsIndexSpecs(t *testing.T) {
	written := []string{testGoblazSpec, testZfpSpec, testGoblazSpec, "sz:mode=lorenzo,tol=0.0001"}
	coders := make([]codec.Coder, len(written))
	want := make([]string, len(written))
	for i, spec := range written {
		coders[i] = mustCoder(t, spec)
		want[i] = coders[i].Spec()
	}
	frames := randomFrames(rand.New(rand.NewSource(3)), len(written), 8, 8)
	path := filepath.Join(t.TempDir(), "ds.json")
	man, err := shard.WriteDatasetAssigned(path, coders[0],
		func(label int, _ *tensor.Tensor) (codec.Coder, error) { return coders[label], nil },
		[]int{0, 1, 2, 3}, 2, 0, func(i int) (*tensor.Tensor, error) { return frames[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	check := func(tier string, inv interface {
		Len() int
		Info(i int) store.FrameInfo
		FrameSpec(i int) string
		Specs() []string
	}, want []string) {
		t.Helper()
		if inv.Len() != len(want) {
			t.Fatalf("%s holds %d frames, want %d", tier, inv.Len(), len(want))
		}
		specs := inv.Specs()
		for i := range want {
			id := inv.Info(i).SpecID
			if id < 0 || id >= len(specs) || specs[id] != inv.FrameSpec(i) {
				t.Errorf("%s frame %d: spec id %d in %q does not name its spec %q", tier, i, id, specs, inv.FrameSpec(i))
			}
			if inv.FrameSpec(i) != want[i] {
				t.Errorf("%s frame %d: spec %q, written under %q", tier, i, inv.FrameSpec(i), want[i])
			}
		}
	}

	base := 0
	for _, sh := range man.Shards {
		r, err := store.Open(filepath.Join(filepath.Dir(path), sh.Path))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		check("shard "+sh.Path, r, want[base:base+r.Len()])
		base += r.Len()
	}

	ds, err := shard.Open(path, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	check("dataset", ds, want)

	co, _ := clusterOf(t, path, 1)
	check("coordinator", &co.inv, want)
	infos, err := co.Frames(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	info, err := co.Spec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range infos {
		spec := e.Spec
		if spec == "" {
			spec = info.Spec
		}
		if spec != want[i] {
			t.Errorf("coordinator's /v1/frames entry %d: spec %q, written under %q", i, spec, want[i])
		}
	}
}

// TestCoordinatorScatterAllocs: the allocation ceiling of a reduction
// the coordinator scatters to two shard servers in this process, client
// and server sides together. It measured 330 on Go 1.24.0; the ceiling
// is that + 10 %, for the toolchain CI pins (Go 1.22), whose net/http
// and escape analysis may differ. A change that lowers the count lowers
// the ceiling.
func TestCoordinatorScatterAllocs(t *testing.T) {
	const ceiling = 363
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frames := randomFrames(rand.New(rand.NewSource(4)), 4, 8, 8)
	co, _ := clusterOf(t, buildDataset(t, t.TempDir(), testGoblazSpec, frames, 2), 1)
	ctx := context.Background()
	got := testing.AllocsPerRun(50, func() {
		if _, err := co.Query(ctx, &query.Request{Reduce: []string{query.AggMean}}); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("a scattered reduction makes %.0f allocations, ceiling %d", got, ceiling)
	}
}
