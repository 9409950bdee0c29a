package conformance_test

// One harness, four ways to serve the same frames: in process over a
// store file, in process over a 3-shard dataset, and over a real HTTP
// server — against both the default store mount and a dataset mount.
// Every implementation must satisfy the identical contract.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/conformance"
	"repro/internal/api/httpapi"
	"repro/internal/query"
)

func TestConformanceLocal(t *testing.T) {
	fx := conformance.NewFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	})
}

func TestConformanceSharded(t *testing.T) {
	fx := conformance.NewFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		s, err := api.OpenSharded(fx.BuildManifest(t, t.TempDir(), 3), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

func TestConformanceClient(t *testing.T) {
	fx := conformance.NewFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		srv := httptest.NewServer(httpapi.New(l, nil, httpapi.Options{}))
		t.Cleanup(srv.Close)
		c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestConformanceClientShardedMount(t *testing.T) {
	// The client pointed at a /v1/datasets/{name} mount: the whole
	// contract holds through HTTP and the scatter-gather executor at
	// once.
	fx := conformance.NewFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		s, err := api.OpenSharded(fx.BuildManifest(t, t.TempDir(), 4), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		srv := httptest.NewServer(httpapi.New(nil, nil, httpapi.Options{
			Datasets: map[string]api.Backend{"fx": s},
		}))
		t.Cleanup(srv.Close)
		c, err := api.NewClient(srv.URL+"/v1/datasets/fx", api.ClientOptions{HTTPClient: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// The mixed-codec fixture (store format v2, goblaz + zfp frames in one
// store) must pass the identical contract on every backend — including
// the per-frame spec surfacing only it exercises.

func TestConformanceMixedLocal(t *testing.T) {
	fx := conformance.NewMixedFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	})
}

func TestConformanceMixedSharded(t *testing.T) {
	fx := conformance.NewMixedFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		s, err := api.OpenSharded(fx.BuildManifest(t, t.TempDir(), 3), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

func TestConformanceMixedClient(t *testing.T) {
	fx := conformance.NewMixedFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		srv := httptest.NewServer(httpapi.New(l, nil, httpapi.Options{}))
		t.Cleanup(srv.Close)
		c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestConformanceMixedClientShardedMount(t *testing.T) {
	// The deepest stack: mixed-codec frames through the scatter-gather
	// executor and a real HTTP hop at once.
	fx := conformance.NewMixedFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		s, err := api.OpenSharded(fx.BuildManifest(t, t.TempDir(), 4), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		srv := httptest.NewServer(httpapi.New(nil, nil, httpapi.Options{
			Datasets: map[string]api.Backend{"fx": s},
		}))
		t.Cleanup(srv.Close)
		c, err := api.NewClient(srv.URL+"/v1/datasets/fx", api.ClientOptions{HTTPClient: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// A frame whose decode is not finite answers its region on every
// backend; over HTTP it used to answer 500, because encoding/json cannot
// write a NaN region value.

func TestConformanceNonFiniteLocal(t *testing.T) {
	fx := conformance.NewNonFiniteFixture(t)
	conformance.RunNonFinite(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	})
}

func TestConformanceNonFiniteSharded(t *testing.T) {
	fx := conformance.NewNonFiniteFixture(t)
	conformance.RunNonFinite(t, fx, func(t *testing.T) api.Backend {
		s, err := api.OpenSharded(fx.BuildManifest(t, t.TempDir(), 1), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

func TestConformanceNonFiniteClient(t *testing.T) {
	fx := conformance.NewNonFiniteFixture(t)
	conformance.RunNonFinite(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		srv := httptest.NewServer(httpapi.New(l, nil, httpapi.Options{}))
		t.Cleanup(srv.Close)
		c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// limited wraps a backend in admission control generous enough that the
// whole conformance suite passes through the limiter untouched — the
// decorator must be contract-transparent when capacity is available.
func limited(b api.Backend) api.Backend {
	return api.Limit(b, api.LimitOptions{MaxConcurrent: 8, MaxQueue: 32, QueueWait: 10 * time.Second})
}

func TestConformanceLimitedLocal(t *testing.T) {
	fx := conformance.NewFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return limited(l)
	})
}

func TestConformanceLimitedSharded(t *testing.T) {
	fx := conformance.NewFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		s, err := api.OpenSharded(fx.BuildManifest(t, t.TempDir(), 3), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return limited(s)
	})
}

func TestConformanceLimitedClient(t *testing.T) {
	// Admission control on the server side of a real HTTP hop: every
	// conformance request crosses the limiter, and shed responses would
	// surface as 429 envelopes. With generous capacity nothing sheds and
	// the contract must hold end to end.
	fx := conformance.NewFixture(t)
	conformance.Run(t, fx, func(t *testing.T) api.Backend {
		l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		srv := httptest.NewServer(httpapi.New(limited(l), nil, httpapi.Options{}))
		t.Cleanup(srv.Close)
		c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// gatedQuery blocks Query until the gate closes, so overload tests can
// deterministically hold a limiter slot occupied. The first call closes
// entered, signaling that a slot is definitely held (the limiter admits
// before invoking the inner backend).
type gatedQuery struct {
	api.Backend
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gatedQuery) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	g.once.Do(func() {
		if g.entered != nil {
			close(g.entered)
		}
	})
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, api.FromError(ctx.Err())
	}
	return g.Backend.Query(ctx, req)
}

// runOverload saturates a 1-slot, 0-queue limiter around inner and
// asserts the overload contract on the backend the caller serves it
// as: shed requests fail fast with the stable overloaded code, and
// capacity returning ends the shedding.
func runOverload(t *testing.T, inner api.Backend, serve func(t *testing.T, lb api.Backend) api.Backend) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	lb := api.Limit(&gatedQuery{Backend: inner, gate: gate, entered: entered},
		api.LimitOptions{MaxConcurrent: 1, MaxQueue: 0, QueueWait: time.Millisecond})
	b := serve(t, lb)
	req := &query.Request{Aggregates: []string{query.AggMean}}

	occupied := make(chan error, 1)
	go func() {
		_, err := b.Query(context.Background(), req)
		occupied <- err
	}()
	// Wait until the occupant provably holds the single slot, then every
	// probe must shed fast with the stable code.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("occupant never reached the backend")
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, err := b.Query(context.Background(), req)
		if api.CodeOf(err) != api.CodeOverloaded {
			t.Fatalf("probe %d while saturated: %v, want overloaded", i, err)
		}
		if !errors.Is(err, api.ErrOverloaded) {
			t.Fatalf("overloaded error lost its sentinel: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("shed response took %v; shedding must fail fast", elapsed)
		}
	}
	close(gate)
	if err := <-occupied; err != nil {
		t.Fatalf("occupant: %v", err)
	}
	if _, err := b.Query(context.Background(), req); err != nil {
		t.Fatalf("after capacity returned: %v", err)
	}
}

func TestOverloadContractLocal(t *testing.T) {
	fx := conformance.NewFixture(t)
	l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	runOverload(t, l, func(t *testing.T, lb api.Backend) api.Backend { return lb })
}

func TestOverloadContractSharded(t *testing.T) {
	fx := conformance.NewFixture(t)
	s, err := api.OpenSharded(fx.BuildManifest(t, t.TempDir(), 3), query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	runOverload(t, s, func(t *testing.T, lb api.Backend) api.Backend { return lb })
}

func TestOverloadContractClient(t *testing.T) {
	// The full wire path: shed requests surface as HTTP 429 envelopes
	// with Retry-After, and the SDK re-attaches the overloaded sentinel.
	fx := conformance.NewFixture(t)
	l, err := api.OpenLocal(fx.BuildStore(t, t.TempDir()), query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	runOverload(t, l, func(t *testing.T, lb api.Backend) api.Backend {
		srv := httptest.NewServer(httpapi.New(lb, nil, httpapi.Options{}))
		t.Cleanup(srv.Close)
		// Retries disabled: a shed must surface, not be papered over.
		c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client(), Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})

	// Raw wire check while saturating again is racy; instead assert the
	// header contract on a dedicated always-shedding server.
	shedGate := make(chan struct{})
	shedEntered := make(chan struct{})
	shed := httptest.NewServer(httpapi.New(
		api.Limit(&gatedQuery{Backend: l, gate: shedGate, entered: shedEntered},
			api.LimitOptions{MaxConcurrent: 1, MaxQueue: 0, QueueWait: time.Millisecond}),
		nil, httpapi.Options{}))
	t.Cleanup(shed.Close)
	// Registered after shed.Close so it runs first: the occupant request
	// must finish before Close can drain the server.
	t.Cleanup(func() { close(shedGate) })
	go shed.Client().Post(shed.URL+"/v1/query", "application/json",
		strings.NewReader(`{"aggregates":["mean"]}`)) // occupy the slot until cleanup
	select {
	case <-shedEntered: // the occupant holds the only slot
	case <-time.After(10 * time.Second):
		t.Fatal("occupant request never reached the backend")
	}
	resp, err := shed.Client().Post(shed.URL+"/v1/query", "application/json",
		strings.NewReader(`{"aggregates":["mean"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != api.CodeOverloaded {
		t.Errorf("429 body is not an overloaded envelope: %+v, %v", env, err)
	}
}
