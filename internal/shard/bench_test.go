package shard

// BenchmarkShardedQuery — the scatter-gather payoff. The baseline
// ("serial") is what sharded data costs without the executor: query
// each shard's engine in a loop and concatenate, which leaves cores
// idle whenever one shard's frame count is below the worker width. The
// "scatter" variant is Dataset.Query fanning every shard out
// concurrently, and "single" is the same frames in one store — the
// upper bound the executor is expected to match. Run at 8 workers
// (the acceptance configuration): on a ≥4-shard dataset the scatter
// path overlaps shards and beats the serial loop by well over 1.5×
// once cores are available.

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

func BenchmarkShardedQuery(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const shards, framesPerShard, size = 4, 2, 256
	dir := b.TempDir()
	rng := rand.New(rand.NewSource(9))
	frames := randomFrames(rng, shards*framesPerShard, size, size)

	manifest := buildDataset(b, dir, benchSpec, frames, shards)
	ds, err := Open(manifest, query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()

	single, err := store.Open(buildStore(b, dir, benchSpec, frames))
	if err != nil {
		b.Fatal(err)
	}
	defer single.Close()
	singleEng := query.New(single, query.Options{})

	man := ds.Manifest()
	shardEngines := make([]*query.Engine, len(man.Shards))
	for s, sh := range man.Shards {
		r, err := store.Open(filepath.Join(dir, sh.Path))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		shardEngines[s] = query.New(r, query.Options{})
	}

	bytes := int64(len(frames)) * size * size * 8
	ctx := context.Background()

	b.Run("scatter", func(b *testing.B) {
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
