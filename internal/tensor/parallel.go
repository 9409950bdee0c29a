package tensor

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// serialBelow is the item count under which ParallelFor runs on the
// caller: starting goroutines costs more than it saves for tiny inputs.
const serialBelow = 256

// ParallelFor partitions [0, n) into at most GOMAXPROCS contiguous
// chunks and runs fn once per chunk, concurrently. fn must be safe to
// call concurrently on disjoint ranges. n < 256 runs serially.
//
// This is the repository's CUDA stand-in: compression, decompression and
// every block-wise compressed-space operation distribute their block loop
// through it. Each call starts its own goroutines and waits only for
// those (see fanOut), so calls may nest and may run under a lock or a
// singleflight without ever waiting on another call's work.
func ParallelFor(n int, fn func(start, end int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < serialBelow {
		workers = 1
	}
	fanOut(n, workers, fn)
}

// ParallelForCoarseCtx runs fn(i) for every i in [0, n) like ParallelFor
// but without the small-n cutoff — the items are coarse (whole query
// frames, shard parts), so even two are worth distributing — and
// re-checks ctx between items: items whose turn comes after ctx is done
// are skipped and the ctx error is returned. Items already inside fn run
// to completion, so cancellation latency is bounded by one item's work.
// A nil error means every item ran.
func ParallelForCoarseCtx(ctx context.Context, n int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	fanOut(n, runtime.GOMAXPROCS(0), func(start, end int) {
		for i := start; i < end && ctx.Err() == nil; i++ {
			fn(i)
		}
	})
	return ctx.Err()
}

// fanOut splits [0, n) into min(n, workers) chunks of ceil(n/workers)
// items, runs the last chunk on the caller and every other on a goroutine
// of its own, and returns when all have finished. A chunk's panic is
// re-raised on the caller (the first one, with the stack it came from)
// after the other chunks have run, so a recover above the call sees it.
func fanOut(n, workers int, fn func(start, end int)) {
	if workers = min(n, workers); workers <= 1 { // before st is allocated: serial costs nothing
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var st struct { // one allocation for everything the goroutines share
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	}
	start := 0
	for ; start+chunk < n; start += chunk {
		s, e := start, start+chunk // captured, not passed as arguments: one closure per chunk
		st.wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					st.once.Do(func() { st.panicked = fmt.Errorf("%v\n\n%s", r, debug.Stack()) })
				}
				st.wg.Done()
			}()
			fn(s, e)
		}()
	}
	defer func() {
		st.wg.Wait()
		if st.panicked != nil {
			panic(st.panicked)
		}
	}()
	fn(start, n)
}
