package cluster

import (
	"context"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// endpoint is one replica URL of one shard, with its SDK client and
// health: an endpoint is up, or cooling down after a failure. Up
// endpoints take traffic first; a failed request or probe starts a
// cooldown, during which requests prefer the endpoint's healthy
// siblings; once it expires the endpoint is worth a try again, and the
// next success — request or probe — restores it to up.
type endpoint struct {
	url    string
	client *api.Client
	gauge  *obs.Gauge

	retryAt atomic.Int64 // cooldown expiry in Unix nanoseconds; 0 while up
}

func newEndpoint(rawURL string, cc ClientConfig, timeout time.Duration, hc *http.Client) (*endpoint, error) {
	opts := api.ClientOptions{
		HTTPClient: hc,
		Timeout:    timeout,
		Retries:    cc.Retries,
		Backoff:    time.Duration(cc.Backoff),
	}
	c, err := api.NewClient(rawURL, opts)
	if err != nil {
		return nil, err
	}
	ep := &endpoint{url: rawURL, client: c, gauge: clusterEndpointUp.With(rawURL)}
	ep.gauge.Set(1)
	return ep, nil
}

// rank orders candidates for a shard call: 0 = up, 1 = cooled down
// (worth a try), 2 = still cooling down (last resort).
func (e *endpoint) rank(now time.Time) int {
	switch retryAt := e.retryAt.Load(); {
	case retryAt == 0:
		return 0
	case now.UnixNano() >= retryAt:
		return 1
	default:
		return 2
	}
}

// markSuccess restores the endpoint to up after a successful request
// or probe.
func (e *endpoint) markSuccess() {
	e.retryAt.Store(0)
	e.gauge.Set(1)
}

// markFailure starts (or restarts) the endpoint's cooldown.
func (e *endpoint) markFailure(cooldown time.Duration) {
	e.retryAt.Store(time.Now().Add(cooldown).UnixNano())
	e.gauge.Set(0)
}

// probeBase is the endpoint's server root: health endpoints live
// beside the API, not under a mount, so a replica URL like
// http://host/v1/datasets/runs probes http://host/readyz.
func (e *endpoint) probeBase() string {
	u, err := url.Parse(e.url)
	if err != nil {
		return e.url
	}
	return u.Scheme + "://" + u.Host
}

// group is one shard's replica set.
type group struct {
	name      string
	endpoints []*endpoint
	cooldown  time.Duration
}

// affinity hashes a label for replica rotation with the splitmix64
// finalizer: deterministic, stateless and avalanching, so replicas share
// reads evenly and every coordinator rotates the same way.
func affinity(label int) uint64 {
	x := uint64(int64(label)) ^ 0x43dd1f5f24f021ba
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// order ranks the group's endpoints for one call: healthy first, then
// cooldown-expired, then still-cooling, with the affinity rotating the
// start so replicas share read load deterministically.
func (g *group) order(affinity uint64, now time.Time) []*endpoint {
	n := len(g.endpoints)
	out := make([]*endpoint, 0, n)
	start := int(affinity % uint64(n))
	for _, want := range []int{0, 1, 2} {
		for i := 0; i < n; i++ {
			ep := g.endpoints[(start+i)%n]
			if ep.rank(now) == want {
				out = append(out, ep)
			}
		}
	}
	return out
}

// call runs fn against g's replicas in health order until one
// succeeds, and returns that answer. Authoritative answers (bad
// request, not found, not supported, canceled) return immediately — a
// second replica would only repeat them. Transport-level and
// server-side failures fail over to the next replica, demoting the
// failed endpoint when the error says the replica itself is unhealthy;
// overloaded replicas are skipped for this call without demotion,
// since backpressure is a healthy signal. With every replica
// exhausted, the shard is reported unavailable with the last failure
// attached.
func call[T any](ctx context.Context, g *group, affinity uint64, fn func(*api.Client) (T, error)) (T, error) {
	var zero T
	order := g.order(affinity, time.Now())
	var lastErr error
	for i, ep := range order {
		if err := ctx.Err(); err != nil {
			return zero, api.FromError(err)
		}
		v, err := fn(ep.client)
		if err == nil {
			ep.markSuccess()
			return v, nil
		}
		if ctx.Err() != nil || !failsOver(err) {
			return zero, err
		}
		if demotes(err) {
			ep.markFailure(g.cooldown)
		}
		lastErr = err
		if i < len(order)-1 {
			clusterFailovers.Inc()
		}
	}
	return zero, api.Errorf(api.CodeUnavailable, "shard %s: all %d replicas failed: %v",
		g.name, len(order), lastErr)
}

// failsOver reports whether an error is worth retrying on a sibling
// replica.
func failsOver(err error) bool {
	switch api.CodeOf(err) {
	case api.CodeBadRequest, api.CodeNotFound, api.CodeNotSupported, api.CodeCanceled:
		return false
	}
	return true
}

// demotes reports whether a failure indicts the replica itself (crash,
// corrupt store, refused connection) rather than transient load.
func demotes(err error) bool {
	switch api.CodeOf(err) {
	case api.CodeInternal, api.CodeUnavailable:
		return true
	}
	return false
}
