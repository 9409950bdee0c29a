package main

// End-to-end smoke: a real HTTP server on a random port, built exactly
// the way `goblaz serve` builds it (openMounts + httpapi.New), queried
// by the real CLI through the api.Client SDK — and the output must be
// byte-identical to the same CLI run against the store path. This is
// the acceptance check that the URL and the path are interchangeable.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/api/httpapi"
	"repro/internal/obs"
	"repro/internal/query"
)

// startServe mounts the store arguments the way runServe does, serves
// them on a random localhost port, and returns the base URL. openMounts
// prints mount lines, so it runs under captureStdout to keep test
// output clean.
func startServe(t *testing.T, storeArgs ...string) string {
	t.Helper()
	var url string
	if _, err := captureStdout(t, func() error {
		// A nonzero server cache, like runServe's default: the query
		// answer must not depend on server-side engine configuration.
		def, stores, datasets, closeAll, err := openMounts(storeArgs, 1<<20)
		if err != nil {
			return err
		}
		t.Cleanup(closeAll)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: httpapi.New(def, stores, httpapi.Options{Datasets: datasets})}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		url = "http://" + ln.Addr().String()
		return nil
	}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	return url
}

func TestE2EClientVsLocal(t *testing.T) {
	path := packQueryStore(t)
	url := startServe(t, path)

	args := []string{
		"-aggs", "mean,variance,stddev,min,max,l2norm",
		"-metric", "mse", "-against", "0",
		"-region", "1,1:3,3", "-point", "2,2",
	}
	viaURL, err := captureStdout(t, func() error { return runQuery(append(args, url)) })
	if err != nil {
		t.Fatalf("query %s: %v", url, err)
	}
	viaPath, err := captureStdout(t, func() error { return runQuery(append(args, path)) })
	if err != nil {
		t.Fatalf("query %s: %v", path, err)
	}
	if len(viaURL) == 0 {
		t.Fatal("empty query output")
	}
	if !bytes.Equal(viaURL, viaPath) {
		t.Errorf("URL and path results differ:\n--- url ---\n%s\n--- path ---\n%s", viaURL, viaPath)
	}
}

func TestE2EInspectURLMatchesLocal(t *testing.T) {
	path := packQueryStore(t)
	url := startServe(t, path)
	viaURL, err := captureStdout(t, func() error { return runInspect([]string{url}) })
	if err != nil {
		t.Fatal(err)
	}
	viaPath, err := captureStdout(t, func() error { return runInspect([]string{path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaURL, viaPath) {
		t.Errorf("inspect differs:\n--- url ---\n%s\n--- path ---\n%s", viaURL, viaPath)
	}
}

func TestE2EMultiStoreMounts(t *testing.T) {
	a, b := packQueryStore(t), packQueryStore(t)
	url := startServe(t, "first="+a, "second="+b)
	for _, target := range []string{url, url + "/v1/stores/first", url + "/v1/stores/second"} {
		blob, err := captureStdout(t, func() error {
			return runQuery([]string{"-aggs", "mean", target})
		})
		if err != nil {
			t.Errorf("query %s: %v", target, err)
		}
		if len(blob) == 0 {
			t.Errorf("query %s printed nothing", target)
		}
	}
}

func TestE2EDatasetMountVsManifest(t *testing.T) {
	// A served dataset answers identically to the manifest on disk —
	// over the default mount and the /v1/datasets/{name} mount alike.
	manifest, _ := packShardedDataset(t, 5, 3)
	url := startServe(t, "runs="+manifest)

	args := []string{"-aggs", "mean,min", "-reduce", "mean,l2norm"}
	viaPath, err := captureStdout(t, func() error { return runQuery(append(args, manifest)) })
	if err != nil {
		t.Fatalf("query manifest: %v", err)
	}
	for _, target := range []string{url, url + "/v1/datasets/runs"} {
		viaURL, err := captureStdout(t, func() error { return runQuery(append(args, target)) })
		if err != nil {
			t.Fatalf("query %s: %v", target, err)
		}
		if !bytes.Equal(viaURL, viaPath) {
			t.Errorf("%s and manifest results differ:\n--- url ---\n%s\n--- path ---\n%s", target, viaURL, viaPath)
		}
	}
}

func TestE2EQueryTimeoutExpires(t *testing.T) {
	path := packQueryStore(t)
	err := runQuery([]string{"-timeout", "1ns", "-aggs", "mean", path})
	if api.CodeOf(err) != api.CodeCanceled {
		t.Errorf("expired -timeout returned %v, want a canceled error", err)
	}
}

func TestE2EQueryBadURL(t *testing.T) {
	// A refused connection surfaces as a classified error, not a panic
	// or a silent empty result.
	err := runQuery([]string{"-aggs", "mean", "-timeout", "100ms", "http://127.0.0.1:1"})
	if err == nil {
		t.Fatal("querying a dead server should fail")
	}
}

// startServeMetrics is startServe with admission control and /metrics
// enabled on the main listener — the full production middleware stack.
func startServeMetrics(t *testing.T, storeArgs ...string) string {
	t.Helper()
	var url string
	if _, err := captureStdout(t, func() error {
		def, stores, datasets, closeAll, err := openMounts(storeArgs, 1<<20)
		if err != nil {
			return err
		}
		t.Cleanup(closeAll)
		def = limitMounts(def, stores, datasets, api.LimitOptions{MaxConcurrent: 4, MaxQueue: 4})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: httpapi.New(def, stores, httpapi.Options{
			Datasets:      datasets,
			ExposeMetrics: true,
		})}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		url = "http://" + ln.Addr().String()
		return nil
	}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	return url
}

// TestE2EMetricsScrape drives traffic through every instrumented layer
// — HTTP, admission control, query engine, shard scatter, codec, store
// reads — then scrapes GET /metrics and checks both that the exposition
// is well-formed and that each layer's families moved.
func TestE2EMetricsScrape(t *testing.T) {
	path := packQueryStore(t)
	manifest, _ := packShardedDataset(t, 5, 3)
	url := startServeMetrics(t, path, "runs="+manifest)

	ctx := context.Background()
	for _, target := range []string{url, url + "/v1/datasets/runs"} {
		client, err := api.NewClient(target, api.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Query(ctx, &query.Request{Aggregates: []string{query.AggMean, query.AggMax}}); err != nil {
			t.Fatalf("query %s: %v", target, err)
		}
		if _, err := client.Frame(ctx, 0); err != nil {
			t.Fatalf("frame %s: %v", target, err)
		}
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != httpapi.PromContentType {
		t.Errorf("content type %q, want %q", ct, httpapi.PromContentType)
	}

	// Exposition validity: every sample line parses, belongs to a family
	// announced by a preceding # TYPE line, and carries a finite value.
	// The label block is matched greedily: label values may themselves
	// contain braces (route="/v1/frames/{label}").
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (-?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|[+-]Inf|NaN)$`)
	typed := map[string]bool{}
	values := map[string]float64{} // family name (suffixes stripped) → summed value
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		name := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typed[base] {
				name = base
				break
			}
		}
		if !typed[name] {
			t.Errorf("sample %q has no preceding # TYPE", m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("bad value in %q: %v", line, err)
		}
		if !strings.HasSuffix(m[1], "_bucket") { // buckets repeat cumulative counts
			values[name] += v
		}
	}

	// One family per instrumented layer must have moved.
	for _, fam := range []string{
		"goblaz_http_requests_total",       // httpapi middleware
		"goblaz_limit_admitted_total",      // admission control
		"goblaz_query_requests_total",      // query engine
		"goblaz_codec_op_total",            // codec ops
		"goblaz_store_payload_reads_total", // store read path
		"goblaz_trace_span_seconds",        // span recording
	} {
		if values[fam] <= 0 {
			t.Errorf("family %s is zero or absent after traffic; exposition:\n%s", fam, body)
		}
	}

	// The JSON snapshot endpoint serves the same registry.
	jresp, err := http.Get(url + "/v1/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /v1/debug/metrics: %v", err)
	}
	if len(snap.Metrics) == 0 {
		t.Error("JSON snapshot holds no metrics")
	}
	if flat := snap.Flatten(); flat["goblaz_http_requests_total{class=2xx,route=/v1/query}"] <= 0 {
		t.Errorf("flattened snapshot missing query requests; keys: %v", flat)
	}
}
