package tensor

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForNested(t *testing.T) {
	// Nested ParallelFor (both levels ≥ 256, so both fan out) must
	// complete and cover every (i, j) pair exactly once.
	const outer, inner = 512, 512
	var total atomic.Int64
	ParallelFor(outer, func(start, end int) {
		for i := start; i < end; i++ {
			ParallelFor(inner, func(s, e int) { total.Add(int64(e - s)) })
		}
	})
	if total.Load() != outer*inner {
		t.Fatalf("nested ParallelFor covered %d of %d items", total.Load(), outer*inner)
	}
}

func TestParallelForConcurrentNested(t *testing.T) {
	// Several goroutines each run a ParallelFor whose chunks run nested
	// ParallelFor calls. A call waits only for the goroutines it started,
	// so no amount of concurrent nesting can leave it waiting on itself.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	const goroutines, outer, inner, iters = 6, 256, 256, 10
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					var total atomic.Int64
					ParallelFor(outer, func(start, end int) {
						for i := start; i < end; i++ {
							ParallelFor(inner, func(s, e int) { total.Add(int64(e - s)) })
						}
					})
					if total.Load() != outer*inner {
						t.Errorf("nested ParallelFor covered %d of %d items", total.Load(), outer*inner)
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent nested ParallelFor deadlocked")
	}
}

func TestParallelForCoarseCtx(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 9, 300} {
			seen := make([]atomic.Int32, n)
			if err := ParallelForCoarseCtx(context.Background(), n, func(i int) { seen[i].Add(1) }); err != nil {
				t.Fatal(err)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("procs=%d n=%d: item %d ran %d times", procs, n, i, c)
				}
			}
		}
	}

	// No small-n cutoff: two items meet on two goroutines.
	runtime.GOMAXPROCS(2)
	var meet sync.WaitGroup
	meet.Add(2)
	met := make(chan struct{})
	go func() { meet.Wait(); close(met) }()
	err := ParallelForCoarseCtx(context.Background(), 2, func(int) {
		meet.Done()
		select {
		case <-met:
		case <-time.After(10 * time.Second):
			t.Error("two coarse items did not run concurrently")
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Items whose turn comes after cancellation are skipped.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err = ParallelForCoarseCtx(ctx, 100, func(int) { ran.Add(1); cancel() })
	if err != context.Canceled || ran.Load() > 2 {
		t.Fatalf("err = %v after %d items, want context.Canceled after ≤ 2", err, ran.Load())
	}
	if err := ParallelForCoarseCtx(ctx, 100, func(int) { t.Error("ran under a canceled ctx") }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestChunkPanicSurfacesOnCaller(t *testing.T) {
	// A panic in a chunk that runs on a spawned goroutine must reach the
	// caller (where httpapi.Handler can turn it into a 500) instead
	// of killing the process, after the other chunks have run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 1024
	for _, victim := range []int{0, n / 2, n - 1} { // first, a middle, and the caller's own chunk
		var ran atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			ParallelFor(n, func(start, end int) {
				if start <= victim && victim < end {
					panic(fmt.Sprintf("chunk holding %d", victim))
				}
				ran.Add(int64(end - start))
			})
			return nil
		}()
		if got == nil || !strings.Contains(fmt.Sprint(got), fmt.Sprintf("chunk holding %d", victim)) {
			t.Fatalf("victim %d: recovered %v", victim, got)
		}
		if victim != n-1 && !strings.Contains(fmt.Sprint(got), "TestChunkPanicSurfacesOnCaller") {
			t.Errorf("victim %d: panic value lacks the chunk's stack:\n%v", victim, got)
		}
		if ran.Load() != n-n/4 {
			t.Errorf("victim %d: other chunks covered %d of %d items", victim, ran.Load(), n-n/4)
		}
	}
}

func TestFanOutAllocations(t *testing.T) {
	// The shared state, the chunk's closure and the caller's fn: passing
	// the range as go-statement arguments instead would cost a fourth.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var total atomic.Int64
	allocs := testing.AllocsPerRun(200, func() {
		ParallelFor(1024, func(start, end int) { total.Add(int64(end - start)) })
	})
	if allocs > 3 {
		t.Fatalf("ParallelFor(1024) allocates %.1f objects per call, want ≤ 3", allocs)
	}
	// A call that does not fan out (the single-frame request) pays only
	// for ParallelForCoarseCtx's own per-item closure.
	one := func(int) { total.Add(1) }
	allocs = testing.AllocsPerRun(200, func() {
		if err := ParallelForCoarseCtx(context.Background(), 1, one); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ParallelForCoarseCtx(1) allocates %.1f objects per call, want ≤ 1", allocs)
	}
}
