package query

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/store"
	"repro/internal/tensor"
)

// countingSource wraps a store reader behind the plain Source interface
// — deliberately hiding FrameKeyer — so every engine decode funnels
// through the counted Frame method, and a gate can hold the in-flight
// decode open while a herd piles up.
type countingSource struct {
	r          *store.Reader
	frameCalls atomic.Int64
	gate       chan struct{} // when non-nil, Frame blocks until closed
}

func (s *countingSource) Len() int                              { return s.r.Len() }
func (s *countingSource) Info(i int) store.FrameInfo            { return s.r.Info(i) }
func (s *countingSource) IndexOf(label int) (int, bool)         { return s.r.IndexOf(label) }
func (s *countingSource) FrameSpec(i int) string                { return s.r.FrameSpec(i) }
func (s *countingSource) FrameCoder(i int) (codec.Coder, error) { return s.r.FrameCoder(i) }
func (s *countingSource) Specs() []string                       { return s.r.Specs() }
func (s *countingSource) Frame(i int) (codec.Compressed, error) {
	s.frameCalls.Add(1)
	if gate := s.gate; gate != nil {
		<-gate
	}
	return s.r.Frame(i)
}
func (s *countingSource) Decompress(i int) (*tensor.Tensor, error) {
	s.frameCalls.Add(1)
	return s.r.Decompress(i)
}

// TestSingleflightHammer drives 32 concurrent queries at one cold frame
// with the cache DISABLED (budget 0), so in-flight coalescing is the
// only thing standing between the herd and 32 decodes. The leader's
// decode is gated until the cache's coalesced counter shows all 31
// other callers waiting on the flight, proving the pile-up is real and
// exactly one decode serves it. A second gated wave then shows the
// flight was forgotten with its generation: one more decode, not zero
// (no stale flight) and not 32 (no lost coalescing). Run with -race;
// the CI race job covers this package.
func TestSingleflightHammer(t *testing.T) {
	src := &countingSource{r: buildStore(t, "zfp:rate=16", seqLabels(1), testFrames(1, 16, 16))}
	cache := NewCache(0)
	e := New(src, Options{Cache: cache})
	req := &Request{Aggregates: []string{AggMin, AggMax}} // zfp has no Extrema: min and max decode

	const herd = 32
	runWave := func(wave int) {
		t.Helper()
		gate := make(chan struct{})
		src.gate = gate
		before := cache.Stats().Coalesced
		var wg sync.WaitGroup
		results := make([]*Result, herd)
		errs := make([]error, herd)
		for g := 0; g < herd; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g], errs[g] = e.Run(context.Background(), req)
			}(g)
		}
		// Hold the leader's decode open until every other caller is
		// provably parked on its flight.
		deadline := time.Now().Add(10 * time.Second)
		for cache.Stats().Coalesced-before < herd-1 {
			if time.Now().After(deadline) {
				close(gate)
				wg.Wait()
				t.Fatalf("wave %d: only %d of %d callers coalesced onto the flight",
					wave, cache.Stats().Coalesced-before, herd-1)
			}
			time.Sleep(time.Millisecond)
		}
		close(gate)
		wg.Wait()
		for g := 0; g < herd; g++ {
			if errs[g] != nil {
				t.Fatalf("wave %d query %d: %v", wave, g, errs[g])
			}
			a, b := results[g].Frames[0].Aggregates, results[0].Frames[0].Aggregates
			if a[AggMin] != b[AggMin] || a[AggMax] != b[AggMax] {
				t.Fatalf("wave %d query %d: results diverge: %v vs %v", wave, g, a, b)
			}
		}
		if got := src.frameCalls.Load(); got != int64(wave) {
			t.Fatalf("after wave %d: %d decodes total, want exactly %d (one per generation)", wave, got, wave)
		}
	}
	runWave(1)
	runWave(2)
}

// TestCacheDecodeCoalesces exercises Cache.Decode directly: concurrent
// misses on the same key share one decode, different keys and different
// namespaces do not coalesce with each other, and an error result is
// not retained — the next generation retries.
func TestCacheDecodeCoalesces(t *testing.T) {
	c := NewCache(1 << 20)
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func() (*tensor.Tensor, error) {
		calls.Add(1)
		close(started)
		<-release
		return frameOf(4), nil
	}
	var wg sync.WaitGroup
	tensors := make([]*tensor.Tensor, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tensors[g], _ = c.Decode(1, 7, fn)
		}(g)
	}
	<-started
	// All waiters must reach the flight before the leader finishes.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < 15 {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatalf("only %d of 15 callers coalesced", c.Stats().Coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("decode ran %d times under a 16-way herd, want 1", got)
	}
	for g := 1; g < 16; g++ {
		if tensors[g] != tensors[0] {
			t.Fatalf("caller %d got a different tensor than the leader", g)
		}
	}
	// Resident now: no decode at all.
	if _, err := c.Decode(1, 7, func() (*tensor.Tensor, error) {
		t.Error("decode ran despite a resident entry")
		return frameOf(4), nil
	}); err != nil {
		t.Fatal(err)
	}
	// A different key and a different namespace are separate flights.
	if _, err := c.Decode(1, 8, func() (*tensor.Tensor, error) { return frameOf(4), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(2, 7, func() (*tensor.Tensor, error) { return frameOf(4), nil }); err != nil {
		t.Fatal(err)
	}

	// A decode that panics ends its flight: the owner sees the panic,
	// its waiter an error, and the next caller decodes afresh instead of
	// parking on the dead flight forever.
	before := c.Stats().Coalesced
	hold := make(chan struct{})
	waiterErr := make(chan error, 1)
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		c.Decode(3, 7, func() (*tensor.Tensor, error) {
			go func() {
				_, err := c.Decode(3, 7, func() (*tensor.Tensor, error) { return frameOf(4), nil })
				waiterErr <- err
			}()
			<-hold
			panic("decode blew up")
		})
	}()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the flight")
		}
	}
	close(hold)
	if r := <-ownerPanic; r != "decode blew up" {
		t.Fatalf("owner recovered %v, want the decode's panic", r)
	}
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("waiter on a panicked decode got no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still parked on the panicked flight")
	}
	retried := make(chan error, 1)
	go func() {
		_, err := c.Decode(3, 7, func() (*tensor.Tensor, error) { return frameOf(4), nil })
		retried <- err
	}()
	select {
	case err := <-retried:
		if err != nil {
			t.Fatalf("decode after a panicked generation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("decode after a panicked generation parked on the leaked flight")
	}
}

// TestCacheDecodeErrorNotCached: a failed decode must not poison later
// generations or be retained as a cache entry.
func TestCacheDecodeErrorNotCached(t *testing.T) {
	c := NewCache(1 << 20)
	boom := context.DeadlineExceeded
	if _, err := c.Decode(1, 1, func() (*tensor.Tensor, error) { return nil, boom }); err != boom {
		t.Fatalf("Decode error = %v, want %v", err, boom)
	}
	if c.Stats().Frames != 0 {
		t.Fatal("failed decode left a cache entry")
	}
	got, err := c.Decode(1, 1, func() (*tensor.Tensor, error) { return frameOf(4), nil })
	if err != nil || got == nil {
		t.Fatalf("retry after failed generation: %v, %v", got, err)
	}
}

// TestCacheDecodeNilAndDisabled: Decode must work without retention —
// on a nil cache it just runs the decode; on a zero-budget cache it
// still coalesces (covered above) but never retains.
func TestCacheDecodeNilAndDisabled(t *testing.T) {
	var nilCache *Cache
	got, err := nilCache.Decode(1, 1, func() (*tensor.Tensor, error) { return frameOf(4), nil })
	if err != nil || got == nil {
		t.Fatalf("nil cache Decode: %v, %v", got, err)
	}
	c := NewCache(0)
	if _, err := c.Decode(1, 1, func() (*tensor.Tensor, error) { return frameOf(4), nil }); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Frames != 0 {
		t.Fatal("disabled cache retained an entry")
	}
}
