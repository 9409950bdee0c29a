package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/codec"
	"repro/internal/data"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

// The pinned codec specs of the corpus. Changing any of them changes
// every number the benchmark reports, so they are constants, not flags.
const (
	specGrid    = "goblaz:block=8x8,float=float32,index=int8"
	specVolGrad = "goblaz:block=4x4x4,float=float32,index=int16"
	specVolMRI  = "zfp:rate=16"
	specVolFiss = "goblaz:block=8x8x8,float=float32,index=int16"
	specLive    = "goblaz:block=8x8,float=float32,index=int16"
)

// The packed files of each frame set, under a set-up's data directory.
const (
	gridFile     = "grid.gbz"
	volManifest  = "vol.json"
	tilesAllFile = "tiles-all.gbz" // every tile in one store: the cluster's single-server reference
	liveFile     = "live.gbz"
)

// sizes scales the corpus. The full sizes are the benchmark; the smoke
// sizes keep every code path (three codecs, four shards, three shard
// servers, commits and compactions) alive on frames small enough for
// `go test`.
type sizes struct {
	gridFrames, gridSide int   // "grid": 2-D frames of the analytics pair
	volFrames, volSide   int   // "vol": mixed-codec volumes; volFrames splits in three equal codec groups
	tileFrames, tileSide int   // "tiles": small 2-D frames spread over the cluster's shard servers
	livePool, liveSide   int   // "live": the pool ingest batches are drawn from
	cacheBytes           int64 // serve_mixed decoded-frame cache: a third of vol fits
	shardCacheBytes      int64 // cluster_scatter per-server cache: the whole share fits
	commitFrames         int
	compactBytes         int64
}

// fullSizes is the benchmark. Frame sizes are what the run budget (15 s
// measured, ≥ 1000 ops for a p99) and the workloads' purposes leave:
// grid frames big enough that bit-unpack and kernels are ≥ 85 % of an
// op, vol and tile frames small enough that serving overhead is not
// drowned by codec work.
var fullSizes = sizes{
	gridFrames: 48, gridSide: 256,
	volFrames: 24, volSide: 16,
	tileFrames: 48, tileSide: 32,
	livePool: 64, liveSide: 64,
	cacheBytes:      8 * 16 * 16 * 16 * 8,
	shardCacheBytes: 64 << 20,
	commitFrames:    64,
	compactBytes:    8 << 10,
}

var smokeSizes = sizes{
	gridFrames: 6, gridSide: 64,
	volFrames: 12, volSide: 16,
	tileFrames: 12, tileSide: 32,
	livePool: 8, liveSide: 32,
	cacheBytes:      4 * 16 * 16 * 16 * 8,
	shardCacheBytes: 1 << 20,
	commitFrames:    8,
	compactBytes:    256,
}

// frameSet is one named group of raw frames with the float64 ground
// truth the answer checks compare against.
type frameSet struct {
	labels []int    // labels[i] == i: a packed frame's label is its position
	specs  []string // per-frame codec spec
	raw    []*tensor.Tensor
	truth  []truth
}

// truth is what float64 arithmetic on the raw frame says.
type truth struct {
	n          int
	sum, sumSq float64
	min, max   float64
}

func (t truth) mean() float64     { return t.sum / float64(t.n) }
func (t truth) variance() float64 { m := t.mean(); return t.sumSq/float64(t.n) - m*m }
func (t truth) valueRange() float64 {
	if r := t.max - t.min; r > 0 {
		return r
	}
	return 1
}

func truthOf(t *tensor.Tensor) truth {
	tr := truth{n: t.Len(), min: math.Inf(1), max: math.Inf(-1)}
	for _, v := range t.Data() {
		tr.sum += v
		tr.sumSq += v * v
		tr.min = math.Min(tr.min, v)
		tr.max = math.Max(tr.max, v)
	}
	return tr
}

func newFrameSet(raw []*tensor.Tensor, specs []string) *frameSet {
	fs := &frameSet{raw: raw, specs: specs}
	for i, t := range raw {
		fs.labels = append(fs.labels, i)
		fs.truth = append(fs.truth, truthOf(t))
	}
	return fs
}

func (fs *frameSet) rawBytes() int64 {
	var n int64
	for _, t := range fs.raw {
		n += int64(t.Len()) * 8
	}
	return n
}

// gradientFrames is the shared smooth family: data.Gradient lifted by
// 0.1·k, so every frame has a distinct mean and a wrong-frame answer is
// off by at least 0.1 of the value range.
func gradientFrames(n int, shape ...int) []*tensor.Tensor {
	base := data.Gradient(shape...)
	out := make([]*tensor.Tensor, n)
	for k := range out {
		out[k] = base.AddScalar(0.1 * float64(k))
	}
	return out
}

func uniformSpecs(n int, spec string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = spec
	}
	return out
}

func genGrid(sz sizes) *frameSet {
	return newFrameSet(gradientFrames(sz.gridFrames, sz.gridSide, sz.gridSide),
		uniformSpecs(sz.gridFrames, specGrid))
}

func genTiles(sz sizes) *frameSet {
	return newFrameSet(gradientFrames(sz.tileFrames, sz.tileSide, sz.tileSide),
		uniformSpecs(sz.tileFrames, specGrid))
}

// genVol is the mixed-codec volume set: a third gradient, a third
// MRI-like (zfp, which has no compressed-space ops and always decodes),
// a third fission steps from 686 on.
func genVol(sz sizes) *frameSet {
	third, s := sz.volFrames/3, sz.volSide
	raw := gradientFrames(third, s, s, s)
	specs := uniformSpecs(third, specVolGrad)
	for k := 0; k < third; k++ {
		raw = append(raw, data.MRIVolume(int64(k+1), s, s, s))
		specs = append(specs, specVolMRI)
	}
	fission := data.FissionSeries(1, s, s, s)
	first := sort.SearchInts(data.FissionTimeSteps, 686)
	for k := 0; k < third; k++ {
		raw = append(raw, fission[(first+k)%len(fission)])
		specs = append(specs, specVolFiss)
	}
	return newFrameSet(raw, specs)
}

// genLive is the ingest pool: gradient plus seeded Gaussian noise, so
// ingested frames are not trivially compressible.
func genLive(sz sizes) *frameSet {
	rng := rand.New(rand.NewSource(128))
	raw := gradientFrames(sz.livePool, sz.liveSide, sz.liveSide)
	for _, t := range raw {
		for i := range t.Data() {
			t.Data()[i] += 0.01 * rng.NormFloat64()
		}
	}
	return newFrameSet(raw, uniformSpecs(sz.livePool, specLive))
}

func lookupCoder(spec string) (codec.Coder, error) {
	cd, err := codec.Lookup(spec)
	if err != nil {
		return nil, err
	}
	coder, ok := cd.(codec.Coder)
	if !ok {
		return nil, fmt.Errorf("codec %q does not serialize", spec)
	}
	return coder, nil
}

// packStore writes frames[from:to] of fs into one store file through
// the series pipeline, the way `goblaz pack` does.
func packStore(path string, fs *frameSet, from, to int) error {
	coder, err := lookupCoder(fs.specs[from])
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := store.NewWriter(f, coder.Spec())
	if err != nil {
		return err
	}
	p := series.NewCodecPipeline(coder, w.Sink(coder), 0)
	for i := from; i < to; i++ {
		p.Submit(fs.labels[i], fs.raw[i])
	}
	if err := p.Wait(); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return f.Close()
}

// packSharded writes fs as a sharded dataset with per-frame codecs.
func packSharded(manifest string, fs *frameSet, shards int) error {
	coders := map[string]codec.Coder{}
	for _, spec := range fs.specs {
		if _, ok := coders[spec]; !ok {
			coder, err := lookupCoder(spec)
			if err != nil {
				return err
			}
			coders[spec] = coder
		}
	}
	assign := func(label int, _ *tensor.Tensor) (codec.Coder, error) {
		return coders[fs.specs[label]], nil
	}
	_, err := shard.WriteDatasetAssigned(manifest, coders[fs.specs[0]], assign, fs.labels, shards, 0,
		func(i int) (*tensor.Tensor, error) { return fs.raw[i], nil })
	return err
}

// dirStats sums the sizes of the regular files under dir and hashes
// them in name order — the corpus fingerprint the output records.
func dirStats(dir string) (bytes int64, sum string, err error) {
	h := sha256.New()
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := io.Copy(h, f)
		bytes += n
		return err
	})
	return bytes, hex.EncodeToString(h.Sum(nil)), err
}
