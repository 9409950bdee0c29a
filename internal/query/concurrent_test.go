package query

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentMultiFrameForceDecode: two clients send two-frame Reduce
// requests with ForceDecode over frames of 1024 blocks, so every request
// fans out per frame, every frame's Decompress fans out per block, and
// both clients meet in the same frames' Cache.Decode flights. With a
// shared task queue whose waiters ran other calls' tasks, a flight's
// owner could pick up the other client's task for its own frame and wait
// on itself, within the first 200 requests; the run then never finished.
// A client stops early after 20 s so the race detector at one core
// (≈ 60 requests/s) stays inside the deadline too.
func TestConcurrentMultiFrameForceDecode(t *testing.T) {
	const clients, requests = 2, 3000
	r := buildStore(t, "goblaz:block=8x8,float=float64,index=int8", seqLabels(2), testFrames(2, 256, 256))
	e := New(r, Options{ForceDecode: true}) // CacheBytes 0: nothing retained, flights still coalesce
	req := &Request{Reduce: []string{AggMean, AggMax}}
	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	begin := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < requests && time.Since(begin) < 20*time.Second; i++ {
					got, err := e.Run(ctx, req)
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					for kind, v := range want.Reduced.Values {
						if got.Reduced.Values[kind] != v {
							t.Errorf("request %d: %s = %v, want %v", i, kind, got.Reduced.Values[kind], v)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		t.Fatalf("%d clients × %d two-frame ForceDecode reduces did not finish in 60 s", clients, requests)
	}
}
