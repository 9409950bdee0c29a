package api

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
)

// gatedBackend wraps a Local so Query blocks until the gate opens —
// a stand-in for a slow decode that keeps a slot occupied.
type gatedBackend struct {
	*Local
	gate chan struct{}
}

func (g *gatedBackend) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, FromError(ctx.Err())
	}
	return g.Local.Query(ctx, req)
}

func TestLimitPassthrough(t *testing.T) {
	local, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	if b := Limit(local, LimitOptions{}); b != Backend(local) {
		t.Fatal("MaxConcurrent ≤ 0 must return the backend unwrapped")
	}
}

func TestLimitedShedsWhenSaturated(t *testing.T) {
	local, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	gated := &gatedBackend{Local: local, gate: make(chan struct{})}
	lb := Limit(gated, LimitOptions{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 5 * time.Second})
	req := &query.Request{Aggregates: []string{query.AggMean}}

	// Occupy the single slot.
	occupied := make(chan error, 1)
	go func() {
		_, err := lb.Query(context.Background(), req)
		occupied <- err
	}()
	waitSaturated(t, lb.(*Limited).slots)

	// Fill the single queue seat.
	queued := make(chan error, 1)
	go func() {
		_, err := lb.Query(context.Background(), req)
		queued <- err
	}()
	waitSaturated(t, lb.(*Limited).queue)

	// Everyone else is shed immediately with the stable code.
	for i := 0; i < 3; i++ {
		_, err := lb.Query(context.Background(), req)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("saturated query %d: err = %v, want ErrOverloaded", i, err)
		}
		if CodeOf(err) != CodeOverloaded {
			t.Fatalf("saturated query %d: code = %q, want overloaded", i, CodeOf(err))
		}
		if FromError(err).HTTPStatus() != http.StatusTooManyRequests {
			t.Fatalf("overloaded must map to 429")
		}
	}

	// Capacity returns: the occupant and the queued request both finish.
	close(gated.gate)
	if err := <-occupied; err != nil {
		t.Fatalf("occupant: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued request should win the freed slot: %v", err)
	}
}

// waitSaturated blocks until ch holds cap(ch) tokens.
func waitSaturated(t *testing.T, ch chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(ch) < cap(ch) {
		if time.Now().After(deadline) {
			t.Fatalf("channel never saturated (%d/%d)", len(ch), cap(ch))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLimitedQueueWaitBoundsLatency(t *testing.T) {
	local, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	gated := &gatedBackend{Local: local, gate: make(chan struct{})}
	lb := Limit(gated, LimitOptions{MaxConcurrent: 1, MaxQueue: 4, QueueWait: 30 * time.Millisecond})
	req := &query.Request{Aggregates: []string{query.AggMean}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lb.Query(context.Background(), req) // occupant, blocked on the gate
	}()
	waitSaturated(t, lb.(*Limited).slots)

	// A queued request must come back overloaded in ~QueueWait, not hang
	// behind the stuck occupant.
	start := time.Now()
	_, err := lb.Query(context.Background(), req)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued request: err = %v, want ErrOverloaded", err)
	}
	if elapsed < 20*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("queue wait took %v, want ≈30ms (bounded, not collapsed)", elapsed)
	}
	close(gated.gate) // release the occupant before waiting for it
	wg.Wait()
}

func TestLimitedQueueHonorsContext(t *testing.T) {
	local, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	gated := &gatedBackend{Local: local, gate: make(chan struct{})}
	defer close(gated.gate)
	lb := Limit(gated, LimitOptions{MaxConcurrent: 1, MaxQueue: 4, QueueWait: time.Minute})
	req := &query.Request{Aggregates: []string{query.AggMean}}
	go lb.Query(context.Background(), req)
	waitSaturated(t, lb.(*Limited).slots)

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, err := lb.Query(ctx, req)
	if CodeOf(err) != CodeCanceled {
		t.Fatalf("canceled in queue: code = %q, want canceled", CodeOf(err))
	}
}

func TestLimitedIndexReadsBypassLimiter(t *testing.T) {
	local, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	gated := &gatedBackend{Local: local, gate: make(chan struct{})}
	defer close(gated.gate)
	lb := Limit(gated, LimitOptions{MaxConcurrent: 1, MaxQueue: 0})
	go lb.Query(context.Background(), &query.Request{Aggregates: []string{query.AggMean}})
	waitSaturated(t, lb.(*Limited).slots)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := lb.Spec(ctx); err != nil {
		t.Fatalf("Spec under saturation: %v", err)
	}
	if _, err := lb.Frames(ctx); err != nil {
		t.Fatalf("Frames under saturation: %v", err)
	}
	if _, err := lb.FrameInfo(ctx, 0); err != nil {
		t.Fatalf("FrameInfo under saturation: %v", err)
	}
}

func TestRetryAfterOf(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	cases := map[string]time.Duration{
		"":     0,
		"1":    time.Second,
		" 2 ":  2 * time.Second,
		"-3":   0,
		"soon": 0,
	}
	for in, want := range cases {
		if got := retryAfterOf(mk(in)); got != want {
			t.Errorf("retryAfterOf(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestRetryAfterFromQueueWaitP50(t *testing.T) {
	local, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	lb := Limit(local, LimitOptions{MaxConcurrent: 1}).(*Limited)

	// Cold start: no observations, historical 1s advice.
	if got := lb.RetryAfterSeconds(); got != 1 {
		t.Fatalf("cold RetryAfterSeconds = %d, want 1", got)
	}

	// Seed the private histogram as if queued requests waited ~3.5s:
	// advice is ceil(p50) of the observed waits.
	for i := 0; i < 10; i++ {
		lb.waits.Observe(3.5)
	}
	if got := lb.RetryAfterSeconds(); got < 3 || got > 5 {
		t.Fatalf("RetryAfterSeconds = %d, want ~4 (ceil of p50≈3.5)", got)
	}

	// Pathological waits land in the overflow bucket, which floors at the
	// histogram's last finite bound (10s) — advice stays bounded.
	for i := 0; i < 100; i++ {
		lb.waits.Observe(500)
	}
	if got := lb.RetryAfterSeconds(); got != 10 {
		t.Fatalf("overflow RetryAfterSeconds = %d, want 10", got)
	}
}

func TestShedErrorCarriesRetryAfter(t *testing.T) {
	local, _ := buildLocal(t, goblazSpec, 2, 8, 8)
	gated := &gatedBackend{Local: local, gate: make(chan struct{})}
	lb := Limit(gated, LimitOptions{MaxConcurrent: 1, MaxQueue: 0, QueueWait: time.Second}).(*Limited)

	// Occupy the only slot, then shed a second request.
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx := context.Background()
		release, err := lb.acquire(ctx)
		if err != nil {
			t.Errorf("first acquire: %v", err)
			close(started)
			return
		}
		close(started)
		<-gated.gate
		release()
	}()
	<-started
	_, err := lb.Query(context.Background(), &query.Request{Aggregates: []string{query.AggMean}})
	close(gated.gate)
	<-done
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != CodeOverloaded {
		t.Fatalf("expected overloaded error, got %v", err)
	}
	if apiErr.RetryAfterSeconds < 1 {
		t.Fatalf("shed error RetryAfterSeconds = %d, want ≥ 1", apiErr.RetryAfterSeconds)
	}
}
