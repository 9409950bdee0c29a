package query_test

// The shared-cache regression suite. One Cache may back many engines
// (Options.Cache — the sharded executor budgets a dataset this way), so
// two invariants must hold under concurrent Engine.Run on a shared
// cache: byte accounting never overruns the budget while evictions
// race, and engines never read each other's frames — the same frame
// index in two stores is two cache entries (namespaced keys), not one.
// Run with -race; the CI race job covers this package.

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

// buildOffsetStore packs n 8×8 frames whose values are offset by base,
// so stores built with different bases decode to different data at the
// same frame indices.
func buildOffsetStore(tb testing.TB, n int, base float64) *store.Reader {
	tb.Helper()
	coder, err := codec.Lookup("goblaz:block=4x4,float=float64,index=int16")
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, coder.Spec())
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < n; k++ {
		f := tensor.New(8, 8)
		for i := range f.Data() {
			f.Data()[i] = base + float64(k) + float64(i%5)*0.25
		}
		c, err := coder.Compress(f)
		if err != nil {
			tb.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.Append(k, payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	r, err := store.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestEngineSharedCacheRace(t *testing.T) {
	// A budget that holds 6 of the working set's 8 distinct 8×8 frames
	// (2 engines × 4 frames), so concurrent decodes (ForceDecode: every
	// aggregate decodes) both hit and evict while the engines hammer
	// Get/Put.
	const frames = 4
	cache := query.NewCache(6 * 64 * 8)
	engines := make([]*query.Engine, 2)
	bases := []float64{0, 1000}
	for i, base := range bases {
		engines[i] = query.New(buildOffsetStore(t, frames, base), query.Options{Cache: cache, ForceDecode: true})
	}
	req := &query.Request{Aggregates: []string{query.AggMin, query.AggMean}}
	hits := cache.Stats().Hits

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng, base := engines[g%2], bases[g%2]
			for iter := 0; iter < 25; iter++ {
				res, err := eng.Run(context.Background(), req)
				if err != nil {
					errs[g] = err
					return
				}
				// Without namespaced keys, a shared cache would hand this
				// engine the other store's decode of the same index and
				// the min would be off by the other store's base.
				// Tolerance 1: quantization error grows with the value
				// scale (~0.1 at base 1000), while cross-engine aliasing
				// would be off by the ~1000 base gap.
				for k, fr := range res.Frames {
					want := base + float64(k)
					if got := float64(fr.Aggregates[query.AggMin]); math.Abs(got-want) > 1 {
						t.Errorf("goroutine %d frame %d min = %g, want ≈ %g (cross-engine cache aliasing?)", g, k, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	s := cache.Stats()
	if s.Used < 0 || s.Used > s.Budget {
		t.Errorf("byte accounting broken after concurrent eviction: %+v", s)
	}
	if s.Hits == hits {
		t.Error("the hammer never hit the cache; the test is not exercising sharing")
	}
}
