package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sumVia runs ParallelFor over n items and returns the number of items
// visited exactly once (as a sum of per-chunk counts).
func sumVia(n int) int64 {
	var total int64
	ParallelFor(n, func(start, end int) {
		atomic.AddInt64(&total, int64(end-start))
	})
	return total
}

func TestParallelForTinyNAlwaysParallelThreshold(t *testing.T) {
	// Regression: with the threshold ablated to 1 (always parallel) and
	// GOMAXPROCS > 1, ParallelFor(1, fn) must still complete — it clamps
	// to one worker and runs serially rather than waiting on chunks that
	// were never submitted.
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)
	oldT := SetParallelThreshold(1)
	defer SetParallelThreshold(oldT)
	for _, n := range []int{1, 2, 3, 4, 5} {
		done := make(chan int64, 1)
		go func() {
			done <- sumVia(n)
		}()
		select {
		case got := <-done:
			if got != int64(n) {
				t.Fatalf("n=%d: covered %d items", n, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("ParallelFor(%d) hung with threshold 1", n)
		}
	}
}

func TestPoolGrowsWithGOMAXPROCS(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(oldProcs)
	sumVia(4096) // pool running at width ≥ 2
	base := PoolWorkers()
	if base < 2 {
		t.Fatalf("PoolWorkers = %d, want ≥ 2", base)
	}
	runtime.GOMAXPROCS(8)
	sumVia(4096) // first call after the raise must grow the pool
	if got := PoolWorkers(); got < 8 {
		t.Fatalf("PoolWorkers = %d after GOMAXPROCS(8), want ≥ 8", got)
	}
}

func TestParallelForNested(t *testing.T) {
	// Nested ParallelFor must complete (inline fallback, no deadlock) and
	// cover every (i, j) pair exactly once.
	const outer, inner = 512, 512
	var total int64
	old := SetParallelThreshold(1)
	defer SetParallelThreshold(old)
	ParallelFor(outer, func(start, end int) {
		for i := start; i < end; i++ {
			ParallelFor(inner, func(s, e int) {
				atomic.AddInt64(&total, int64(e-s))
			})
		}
	})
	if total != outer*inner {
		t.Fatalf("nested ParallelFor covered %d of %d items", total, outer*inner)
	}
}

func TestParallelForConcurrentNested(t *testing.T) {
	// Regression test for a pool deadlock: several goroutines each run a
	// ParallelFor whose chunks run nested ParallelFor calls. With a naive
	// pool, every worker can end up blocked inside an outer chunk while
	// the nested chunks sit unclaimed in the queue. The waiting callers
	// must help drain the queue instead.
	oldProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(oldProcs)
	oldT := SetParallelThreshold(1)
	defer SetParallelThreshold(oldT)

	const goroutines, outer, inner, iters = 6, 64, 32, 30
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					var total int64
					ParallelFor(outer, func(start, end int) {
						for i := start; i < end; i++ {
							ParallelFor(inner, func(s, e int) {
								atomic.AddInt64(&total, int64(e-s))
							})
						}
					})
					if atomic.LoadInt64(&total) != outer*inner {
						panic("nested ParallelFor lost work")
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

func TestSetParallelThresholdConcurrent(t *testing.T) {
	// Mutating the threshold while other goroutines run ParallelFor must
	// be race-free (run with -race) and never lose work items.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetParallelThreshold(1 + i%1000)
		}
	}()
	for i := 0; i < 200; i++ {
		if got := sumVia(1024); got != 1024 {
			t.Fatalf("iteration %d: covered %d of 1024", i, got)
		}
	}
	close(stop)
	wg.Wait()
	SetParallelThreshold(256)
}

func TestSetParallelThresholdRestores(t *testing.T) {
	old := SetParallelThreshold(1 << 30)
	if ParallelThreshold() != 1<<30 {
		t.Fatalf("threshold = %d", ParallelThreshold())
	}
	if prev := SetParallelThreshold(old); prev != 1<<30 {
		t.Fatalf("swap returned %d", prev)
	}
	if SetParallelThreshold(ParallelThreshold()) <= 0 {
		t.Fatal("threshold must stay positive")
	}
}
