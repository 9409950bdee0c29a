package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/shard"
)

func validTopology() *Topology {
	return &Topology{
		Version: TopologyVersion,
		Dataset: "runs",
		Shards: []ShardSpec{
			{Name: "a", Replicas: []string{"http://localhost:8081"}},
			{Name: "b", Replicas: []string{"http://localhost:8082", "http://localhost:8083"}},
		},
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := validTopology().Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	bad := []func(*Topology){
		func(tp *Topology) { tp.Version = 9 },
		func(tp *Topology) { tp.Shards = nil },
		func(tp *Topology) { tp.Placement = "striped" },
		func(tp *Topology) { tp.Placement = "hash" },
		func(tp *Topology) { tp.Shards[0].Name = "" },
		func(tp *Topology) { tp.Shards[1].Name = "a" },
		func(tp *Topology) { tp.Shards[0].Replicas = nil },
		func(tp *Topology) { tp.Shards[0].Replicas = []string{"localhost:8081"} },
		func(tp *Topology) { tp.Shards[0].Replicas = []string{"ftp://x"} },
		func(tp *Topology) { tp.Shards[1].Replicas[1] = tp.Shards[1].Replicas[0] },
	}
	for i, mutate := range bad {
		tp := validTopology()
		mutate(tp)
		if err := tp.Validate(); err == nil {
			t.Errorf("mutation %d should not validate", i)
		}
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	tp := validTopology()
	tp.Placement = PlacementContiguous
	tp.Probe = ProbeConfig{Interval: Duration(time.Second), Cooldown: Duration(250 * time.Millisecond), DownAfter: 2}
	tp.Client = ClientConfig{Timeout: Duration(3 * time.Second), Retries: -1}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := tp.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != tp.Dataset || got.Placement != tp.Placement || len(got.Shards) != len(tp.Shards) {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Probe.interval() != time.Second || got.Probe.cooldown() != 250*time.Millisecond || got.Probe.DownAfter != 2 {
		t.Errorf("probe config %+v did not survive", got.Probe)
	}
	if time.Duration(got.Client.Timeout) != 3*time.Second || got.Client.Retries != -1 {
		t.Errorf("client config %+v did not survive", got.Client)
	}
}

// TestDownAfterStillLoads: probe.downAfter no longer does anything,
// but a topology file that sets it (as older ones do) still loads.
func TestDownAfterStillLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	blob := `{"version":1,"shards":[{"name":"a","replicas":["http://x"]}],"probe":{"interval":"2s","cooldown":"5s","downAfter":3}}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	tp, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Probe.interval() != 2*time.Second || tp.Probe.cooldown() != 5*time.Second || tp.Probe.DownAfter != 3 {
		t.Errorf("probe config %+v", tp.Probe)
	}
}

func TestDurationForms(t *testing.T) {
	var p ProbeConfig
	// Human-readable string form and raw nanoseconds both parse.
	if err := json.Unmarshal([]byte(`{"interval":"150ms","cooldown":2000000000}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.interval() != 150*time.Millisecond || p.cooldown() != 2*time.Second {
		t.Fatalf("parsed %+v", p)
	}
	if err := json.Unmarshal([]byte(`{"interval":"fast"}`), &p); err == nil {
		t.Error("bad duration string should fail")
	}
	// Zero values fall back to the documented defaults.
	var zero ProbeConfig
	if zero.interval() != 2*time.Second || zero.cooldown() != 5*time.Second {
		t.Errorf("defaults %v %v", zero.interval(), zero.cooldown())
	}
}

func TestLoadTopologyRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	for _, blob := range []string{
		`{"version":1,"shards":[{"name":"a","replicas":["http://x"]}],"coordinator":"nope"}`,
		// hashSeed is not a topology field: a file naming it must fail,
		// not load with the seed silently ignored.
		`{"version":1,"hashSeed":42,"shards":[{"name":"a","replicas":["http://x"]}]}`,
		// Nor may anything but whitespace follow the topology.
		`{"version":1,"shards":[{"name":"a","replicas":["http://x"]}]}{"version":1}`,
		`{"version":1,"shards":[{"name":"a","replicas":["http://x"]}]} x`,
	} {
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTopology(path); err == nil {
			t.Errorf("should fail to load: %s", blob)
		}
	}
}

func TestIsTopologyDiscriminatesManifest(t *testing.T) {
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "cluster.json")
	if err := validTopology().Write(topoPath); err != nil {
		t.Fatal(err)
	}
	manifest := &shard.Manifest{
		Version: shard.ManifestVersion,
		Spec:    "goblaz:block=4x4",
		Shards:  []shard.ShardInfo{{Path: "s0.gbz", Frames: 1, Labels: []int{0}}},
	}
	manPath := filepath.Join(dir, "ds.json")
	if err := manifest.Write(manPath); err != nil {
		t.Fatal(err)
	}
	// Each sniffer accepts its own format and rejects the other's —
	// that discrimination is what lets openBackend and serve mounts
	// take either file without a flag.
	if !IsTopology(topoPath) {
		t.Error("topology not recognized")
	}
	if IsTopology(manPath) {
		t.Error("shard manifest misrecognized as topology")
	}
	if shard.IsManifest(topoPath) {
		t.Error("topology misrecognized as shard manifest")
	}
	if !shard.IsManifest(manPath) {
		t.Error("shard manifest not recognized")
	}
	if IsTopology(filepath.Join(dir, "missing")) {
		t.Error("missing file misrecognized as topology")
	}
}

// TestHashPlacementRejected: the coordinator discovers which shard holds
// each label, so a topology asserting hash placement fails to load and
// fails to connect instead of opening as if it had been checked.
func TestHashPlacementRejected(t *testing.T) {
	tp := validTopology()
	tp.Placement = "hash"
	blob, err := json.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTopology(path); err == nil || !strings.Contains(err.Error(), "discovers") {
		t.Errorf("LoadTopology = %v, want an error naming discovery", err)
	}
	_, err = New(tp, Options{})
	if api.CodeOf(err) != api.CodeBadRequest || !strings.Contains(err.Error(), "discovers") {
		t.Errorf("New = %v, want a bad request naming discovery", err)
	}
}

// TestReplicaAffinityPinned pins the label hash that picks which replica
// a call tries first, so no existing topology's read rotation moves.
func TestReplicaAffinityPinned(t *testing.T) {
	for label, want := range map[int]uint64{
		-1:      0x0e31e0890b4e0374,
		0:       0xe2aac06220126021,
		1:       0x527d234715de24d7,
		41:      0x2d0d158e23936379,
		1 << 40: 0x37eb0fa27fd7e509,
	} {
		if got := affinity(label); got != want {
			t.Errorf("affinity(%d) = %#016x, want %#016x", label, got, want)
		}
	}
}

// FuzzLoadTopology: LoadTopology never panics, and a topology it
// accepts, written back through Write, reloads to an equal value.
func FuzzLoadTopology(f *testing.F) {
	full := validTopology()
	full.Placement = PlacementContiguous
	full.Probe = ProbeConfig{Interval: Duration(time.Second), Cooldown: Duration(250 * time.Millisecond), DownAfter: 2}
	full.Client = ClientConfig{Timeout: Duration(3 * time.Second), Retries: -1, Backoff: 100}
	for _, tp := range []*Topology{validTopology(), full} {
		blob, err := json.Marshal(tp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	const one = `{"version":1,"shards":[{"name":"a","replicas":["http://x"]}]}`
	f.Add([]byte(one + "\n"))
	f.Add([]byte(one + `{"version":1}`))
	f.Add([]byte(one + " x"))
	f.Add([]byte(`{"version":1,"shards":[{"name":"a","replicas":["https://h:1/v1/datasets/d"]}],"probe":{"interval":1500000000,"cooldown":"-2m"}}`))
	// downAfter no longer does anything, but files that set it must load.
	f.Add([]byte(`{"version":1,"shards":[{"name":"a","replicas":["http://x"]}],"probe":{"interval":"2s","cooldown":"5s","downAfter":3}}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		tp, err := LoadTopology(path)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := tp.Write(out); err != nil {
			t.Fatalf("accepted topology does not write: %v", err)
		}
		back, err := LoadTopology(out)
		if err != nil {
			t.Fatalf("written topology does not reload: %v", err)
		}
		if !reflect.DeepEqual(tp, back) {
			t.Fatalf("round trip changed the topology:\n%+v\n%+v", tp, back)
		}
	})
}
