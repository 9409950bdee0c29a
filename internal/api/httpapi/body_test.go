package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/api/conformance"
	"repro/internal/query"
)

// TestResponseBodiesMatchEncodingJSON pins the result routes' bodies to
// encoding/json's: every stats, region, point, metric, pair and reduce
// answer is written through the hand-written encoder, and must be
// byte for byte json.Marshal of the backend's answer plus a newline, on
// goblaz, zfp and mixed-codec stores alike.
func TestResponseBodiesMatchEncodingJSON(t *testing.T) {
	openFixture := func(fx *conformance.Fixture) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	backends := []struct {
		name string
		b    api.Backend
	}{
		{"goblaz", openFixture(conformance.NewFixture(t))},
		{"zfp", buildLocalSpec(t, "zfp:rate=32", 4, 16, 16)},
		{"mixed", openFixture(conformance.NewMixedFixture(t))},
	}
	against := 0
	queries := []query.Request{
		{Aggregates: []string{query.AggMean, query.AggMin, query.AggMax, query.AggStdDev}},
		{Select: query.Selector{Labels: "[12]"}, Point: []int{3, 5}},
		{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &against}},
		{Metric: &query.MetricRequest{Kind: query.MetricPSNR, Against: &against}},
		{Select: query.Selector{Labels: "[01]"}, Metric: &query.MetricRequest{Kind: query.MetricCosine}},
		{Select: query.Selector{Labels: "[12]"}, Metric: &query.MetricRequest{Kind: query.MetricDot}},
		{Reduce: []string{query.AggMean, query.AggVariance, query.AggL2Norm}},
		{Reduce: []string{query.AggMin, query.AggMax}, Aggregates: []string{query.AggL2Norm}},
		{Select: query.Selector{Labels: "3"}, Region: &query.RegionRequest{Offset: []int{2, 1}, Shape: []int{3, 5}}},
	}
	ctx := context.Background()
	for _, be := range backends {
		srv := httptest.NewServer(New(be.b, nil, Options{}))
		check := func(what string, resp *http.Response, answer any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", be.name, what, err)
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s = %d, %v: %s", be.name, what, resp.StatusCode, rerr, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s Content-Type = %q", be.name, what, ct)
			}
			want, merr := json.Marshal(answer)
			if merr != nil {
				t.Fatal(merr)
			}
			if string(body) != string(want)+"\n" {
				t.Errorf("%s %s body differs from encoding/json:\n got %s\nwant %s", be.name, what, body, want)
			}
		}
		get := func(path string) *http.Response {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		for label := 0; label < 2; label++ {
			fr, err := be.b.Stats(ctx, label, nil)
			check("stats", get("/v1/frames/"+strconv.Itoa(label)+"/stats"), fr, err)
			fr, err = be.b.Stats(ctx, label, []string{query.AggMax, query.AggMean})
			check("stats subset", get("/v1/frames/"+strconv.Itoa(label)+"/stats?aggs=max,mean"), fr, err)
			fr, err = be.b.Region(ctx, label, []int{1, 2}, []int{4, 3})
			check("region", get("/v1/frames/"+strconv.Itoa(label)+"/region?offset=1,2&shape=4,3"), fr, err)
		}
		for _, req := range queries {
			blob, _ := json.Marshal(req)
			resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(string(blob)))
			if err != nil {
				t.Fatal(err)
			}
			reqCopy := req
			res, err := be.b.Query(ctx, &reqCopy)
			check("query "+string(blob), resp, res, err)
		}
		srv.Close()
	}
}
