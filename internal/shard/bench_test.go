package shard

// BenchmarkShardedQuery — what sharding costs a query. "dataset" is
// Dataset.Query: one engine over the concatenated view, fanning every
// frame of every shard out at once. "single" is the same frames in one
// memory-mapped store, the bound the dataset is expected to match, and
// "serial" is what sharded data costs without a dataset: each shard's
// engine queried in a loop, which leaves cores idle whenever a shard
// holds fewer frames than the worker width. Run at 8 workers.

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

const benchSpec = "goblaz:block=8x8,float=float64,index=int16"

// benchRequest forces the decode path (min/max), the worst per-frame
// cost a query can pay and the one parallelism helps most.
var benchRequest = &query.Request{
	Aggregates: []string{query.AggMean, query.AggMin, query.AggMax},
	Reduce:     []string{query.AggMean, query.AggVariance},
}

// benchDataset writes BenchmarkShardedQuery's frames as a 4-shard
// dataset and as one store, and opens both, memory-mapped.
func benchDataset(tb testing.TB, dir string) (*Dataset, *store.Reader) {
	const shards, framesPerShard, size = 4, 2, 256
	frames := randomFrames(rand.New(rand.NewSource(9)), shards*framesPerShard, size, size)
	ds, err := Open(buildDataset(tb, dir, benchSpec, frames, shards), query.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.Close() })
	single, err := store.OpenReaderMmap(buildStore(tb, dir, benchSpec, frames))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { single.Close() })
	return ds, single
}

// TestDatasetQueryAllocs: a dataset query allocates within 10 % of the
// same query on one store's engine — sharding adds no executor of its
// own.
func TestDatasetQueryAllocs(t *testing.T) {
	ds, single := benchDataset(t, t.TempDir())
	singleEng := query.New(single, query.Options{})
	ctx := context.Background()
	run := func(q func(context.Context, *query.Request) (*query.Result, error)) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := q(ctx, benchRequest); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, want := run(ds.Query), run(singleEng.Run)
	if got > 1.1*want {
		t.Errorf("Dataset.Query makes %.0f allocations, one store's engine %.0f", got, want)
	}
}

// TestDatasetOneFrameAllocs: the allocation ceiling of a one-frame
// mean through Dataset.Query, over two mmap'd shards. It measured 14 on
// Go 1.24.0; the ceiling leaves one allocation for the toolchain CI
// pins (Go 1.22), whose escape analysis may differ. A change that
// lowers the count lowers the ceiling.
func TestDatasetOneFrameAllocs(t *testing.T) {
	const ceiling = 15
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frames := randomFrames(rand.New(rand.NewSource(9)), 4, 32, 32)
	ds, err := Open(buildDataset(t, t.TempDir(), benchSpec, frames, 2), query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	req := &query.Request{Select: query.Selector{Labels: "2"}, Aggregates: []string{query.AggMean}}
	got := testing.AllocsPerRun(50, func() {
		if _, err := ds.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("a one-frame mean through Dataset.Query makes %.0f allocations, ceiling %d", got, ceiling)
	}
}

func BenchmarkShardedQuery(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	dir := b.TempDir()
	ds, single := benchDataset(b, dir)
	singleEng := query.New(single, query.Options{})

	shardEngines := make([]*query.Engine, len(ds.readers))
	for s, r := range ds.readers {
		shardEngines[s] = query.New(r, query.Options{})
	}

	bytes := int64(ds.Len()) * 256 * 256 * 8
	ctx := context.Background()

	b.Run("dataset", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			if _, err := ds.Query(ctx, benchRequest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for _, eng := range shardEngines {
				if _, err := eng.Run(ctx, benchRequest); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			if _, err := singleEng.Run(ctx, benchRequest); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMixedCodecQuery measures what per-frame specs cost the query
// path: the same frames in a uniform goblaz store versus a mixed
// goblaz/zfp v2 store, through the identical engine. The mixed store
// pays per-spec coder resolution and loses compressed-space pairwise
// shortcuts across codec boundaries; this keeps that overhead visible.
func BenchmarkMixedCodecQuery(b *testing.B) {
	const n, size = 8, 256
	rng := rand.New(rand.NewSource(10))
	frames := randomFrames(rng, n, size, size)
	bytes := int64(n) * size * size * 8
	ctx := context.Background()

	open := func(b *testing.B, path string) *query.Engine {
		man, err := LoadManifest(path)
		if err != nil {
			b.Fatal(err)
		}
		r, err := store.Open(filepath.Join(filepath.Dir(path), man.Shards[0].Path))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { r.Close() })
		return query.New(r, query.Options{})
	}

	uniform := open(b, buildDataset(b, b.TempDir(), goblazSpec, frames, 1))
	mixed := open(b, buildDatasetAssigned(b, b.TempDir(), frames, 1))

	for name, eng := range map[string]*query.Engine{"uniform": uniform, "mixed": mixed} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, benchRequest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
