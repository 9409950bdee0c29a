package main

// Distributed-tier end-to-end checks: a cluster topology over real
// shard servers must be interchangeable with the manifest on disk —
// as a `goblaz query` argument and as a `goblaz serve -topology`
// mount. The final test does it with real
// processes: two `goblaz serve` shard children plus a coordinator
// child, spawned by re-executing this test binary, gated on /readyz.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/shard"
)

// sameAnswer reports whether two `goblaz query` outputs agree: byte for
// byte in every field except reduced.sum, reduced.sumSq and
// reduced.values, which must agree within 1e-12 relative. A coordinator
// folds per-shard moment partials while a dataset folds one partial per
// frame, so the two associate the same floating-point sums differently
// and may land an ulp apart.
func sameAnswer(t *testing.T, got, want []byte) bool {
	t.Helper()
	var g, w query.Result
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("parsing %s: %v", got, err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("parsing %s: %v", want, err)
	}
	if g.Reduced != nil && w.Reduced != nil {
		near := func(a, b query.Float) bool {
			return a == b || math.Abs(float64(a-b)) <= 1e-12*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
		}
		if !near(g.Reduced.Sum, w.Reduced.Sum) || !near(g.Reduced.SumSq, w.Reduced.SumSq) ||
			len(g.Reduced.Values) != len(w.Reduced.Values) {
			return false
		}
		for kind, v := range w.Reduced.Values {
			if gv, ok := g.Reduced.Values[kind]; !ok || !near(gv, v) {
				return false
			}
		}
		g.Reduced.Sum, g.Reduced.SumSq, g.Reduced.Values = w.Reduced.Sum, w.Reduced.SumSq, w.Reduced.Values
	}
	gb, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(gb, wb)
}

// clusterTopologyFile serves every shard of the manifest from its own
// in-process server (one replica each) and writes a topology over them.
func clusterTopologyFile(t *testing.T, manifest, dataset string) string {
	t.Helper()
	man, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(manifest)
	topo := &cluster.Topology{Version: cluster.TopologyVersion, Dataset: dataset}
	for i, sh := range man.Shards {
		url := startServe(t, filepath.Join(dir, sh.Path))
		topo.Shards = append(topo.Shards, cluster.ShardSpec{
			Name:     fmt.Sprintf("s%d", i),
			Replicas: []string{url},
		})
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := topo.Write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClusterTopologyBackendMatchesManifest(t *testing.T) {
	// `goblaz query` on a topology file answers like the same query on
	// the manifest (sameAnswer: byte-identical but for the reduction's
	// sums). No -metric here: the internal/cluster differential covers
	// cross-shard metrics.
	manifest, _ := packShardedDataset(t, 6, 2)
	topoPath := clusterTopologyFile(t, manifest, "runs")

	args := []string{
		"-aggs", "mean,variance,stddev,min,max,l2norm",
		"-reduce", "mean,variance,min,max",
		"-region", "1,1:3,3", "-point", "2,2",
	}
	viaTopo, err := captureStdout(t, func() error { return runQuery(append(args, topoPath)) })
	if err != nil {
		t.Fatalf("query topology: %v", err)
	}
	viaManifest, err := captureStdout(t, func() error { return runQuery(append(args, manifest)) })
	if err != nil {
		t.Fatalf("query manifest: %v", err)
	}
	if len(viaTopo) == 0 {
		t.Fatal("empty query output")
	}
	if !sameAnswer(t, viaTopo, viaManifest) {
		t.Errorf("topology and manifest results differ:\n--- topology ---\n%s\n--- manifest ---\n%s", viaTopo, viaManifest)
	}

	// inspect resolves a topology like any other store argument and sees
	// the dataset's full frame inventory through the coordinator.
	out, err := captureStdout(t, func() error { return runInspect([]string{topoPath}) })
	if err != nil {
		t.Fatalf("inspect topology: %v", err)
	}
	if !bytes.Contains(out, []byte("frames:  6")) {
		t.Errorf("inspect output does not report 6 frames:\n%s", out)
	}
}

func TestClusterServeTopology(t *testing.T) {
	// `goblaz serve -topology` mounts the coordinator as a dataset; the
	// default mount and /v1/datasets/{name} both answer (sameAnswer) like
	// the manifest on disk — a coordinator behind a server behind the
	// SDK is still the same dataset.
	manifest, _ := packShardedDataset(t, 6, 2)
	topoPath := clusterTopologyFile(t, manifest, "runs")
	url := startServe(t, topoPath)

	args := []string{"-aggs", "mean,min", "-reduce", "mean,l2norm"}
	viaManifest, err := captureStdout(t, func() error { return runQuery(append(args, manifest)) })
	if err != nil {
		t.Fatalf("query manifest: %v", err)
	}
	for _, target := range []string{url, url + "/v1/datasets/runs"} {
		viaURL, err := captureStdout(t, func() error { return runQuery(append(args, target)) })
		if err != nil {
			t.Fatalf("query %s: %v", target, err)
		}
		if !sameAnswer(t, viaURL, viaManifest) {
			t.Errorf("%s and manifest results differ:\n--- url ---\n%s\n--- manifest ---\n%s", target, viaURL, viaManifest)
		}
	}
}

// TestHelperServeProcess is not a test: it is the re-exec target for
// the multi-process e2e below. The parent runs this binary with
// -test.run pinned here and GOBLAZ_HELPER_SERVE=1; everything after
// "--" is a `goblaz serve` argument list.
func TestHelperServeProcess(t *testing.T) {
	if os.Getenv("GOBLAZ_HELPER_SERVE") != "1" {
		t.Skip("re-exec helper, not a test")
	}
	sep := -1
	for i, a := range os.Args {
		if a == "--" {
			sep = i + 1
			break
		}
	}
	if sep < 0 {
		t.Fatal("helper invoked without a -- argument separator")
	}
	if err := runServe(os.Args[sep:]); err != nil {
		t.Fatal(err)
	}
}

// spawnServe re-executes the test binary as a real `goblaz serve`
// process, waits for it to print its bound address and for /readyz to
// go 200, and returns the base URL.
func spawnServe(t *testing.T, args ...string) string {
	t.Helper()
	argv := append([]string{"-test.run=^TestHelperServeProcess$", "--", "-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0], argv...)
	cmd.Env = append(os.Environ(), "GOBLAZ_HELPER_SERVE=1")
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// runServe prints "serving ... on 127.0.0.1:PORT" after flipping
	// readiness; everything before it is mount lines.
	addrRe := regexp.MustCompile(` on (127\.0\.0\.1:\d+)$`)
	url := ""
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		if m := addrRe.FindStringSubmatch(scanner.Text()); m != nil {
			url = "http://" + m[1]
			break
		}
	}
	if url == "" {
		t.Fatalf("serve child never printed its address (scan error: %v)", scanner.Err())
	}
	// Keep draining so the child never blocks on a full pipe.
	go io.Copy(io.Discard, stdout)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return url
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready: %v", url, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestClusterMultiProcessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	// Two real shard server processes, one real coordinator process
	// serving the topology with /metrics on, queried by the real CLI —
	// and the answer must match the manifest on disk (sameAnswer).
	manifest, _ := packShardedDataset(t, 6, 2)
	man, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(manifest)
	topo := &cluster.Topology{Version: cluster.TopologyVersion, Dataset: "runs"}
	for i, sh := range man.Shards {
		url := spawnServe(t, filepath.Join(dir, sh.Path))
		topo.Shards = append(topo.Shards, cluster.ShardSpec{
			Name:     fmt.Sprintf("s%d", i),
			Replicas: []string{url},
		})
	}
	topoPath := filepath.Join(t.TempDir(), "cluster.json")
	if err := topo.Write(topoPath); err != nil {
		t.Fatal(err)
	}
	coordURL := spawnServe(t, "-metrics", "-topology", topoPath)

	args := []string{"-aggs", "mean,min,max", "-reduce", "mean,l2norm"}
	viaManifest, err := captureStdout(t, func() error { return runQuery(append(args, manifest)) })
	if err != nil {
		t.Fatalf("query manifest: %v", err)
	}
	for _, target := range []string{coordURL, coordURL + "/v1/datasets/runs"} {
		viaCoord, err := captureStdout(t, func() error { return runQuery(append(args, target)) })
		if err != nil {
			t.Fatalf("query %s: %v", target, err)
		}
		if !sameAnswer(t, viaCoord, viaManifest) {
			t.Errorf("%s and manifest results differ:\n--- coordinator ---\n%s\n--- manifest ---\n%s", target, viaCoord, viaManifest)
		}
	}

	// The coordinator's /metrics shows distributed-tier activity: the
	// scatter counters moved and every shard endpoint reads healthy.
	resp, err := http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s (%v)", resp.Status, err)
	}
	for family, re := range map[string]*regexp.Regexp{
		"goblaz_cluster_queries_total": regexp.MustCompile(`(?m)^goblaz_cluster_queries_total (\d+)$`),
		"goblaz_cluster_parts_total":   regexp.MustCompile(`(?m)^goblaz_cluster_parts_total (\d+)$`),
	} {
		m := re.FindSubmatch(body)
		if m == nil {
			t.Errorf("family %s missing from coordinator exposition:\n%s", family, body)
			continue
		}
		if v, _ := strconv.Atoi(string(m[1])); v <= 0 {
			t.Errorf("family %s did not move: %s", family, m[0])
		}
	}
	up := regexp.MustCompile(`(?m)^goblaz_cluster_endpoint_up\{[^}]*\} 1$`).FindAll(body, -1)
	if len(up) != len(topo.Shards) {
		t.Errorf("%d endpoints report up, want %d; exposition:\n%s", len(up), len(topo.Shards), body)
	}
}
