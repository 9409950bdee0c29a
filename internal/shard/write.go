package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codec"
	"repro/internal/series"
	"repro/internal/store"
	"repro/internal/tensor"
)

// FrameFunc supplies the i-th frame of a dataset being written. It is
// called once per frame, in global order, so callers can stream frames
// from disk instead of holding the whole dataset in memory.
type FrameFunc func(i int) (*tensor.Tensor, error)

// AssignFunc picks the codec a frame should compress under. Pipeline
// workers call it concurrently; implementations must be safe for
// concurrent use (e.g. a fixed label → coder table from a tune report).
type AssignFunc func(label int, frame *tensor.Tensor) (codec.Coder, error)

// WriteDatasetAssigned packs frames into a sharded dataset: nShards
// store files next to the manifest at path, split into contiguous runs
// so global frame order equals input order, plus the manifest itself.
// labels assigns each frame's label (they must be unique). Each shard
// compresses through its own parallel pipeline; shard files land via
// temp-file-and-rename and the manifest is written last, so a mid-pack
// failure leaves no readable-but-wrong dataset behind.
//
// A nil assign compresses every frame with coder. Otherwise each frame
// compresses under the codec assign picks for it, and shard stores
// record each frame's spec (store format v2); coder remains the
// dataset's default spec, and frames assigned exactly that codec intern
// no extra spec. Shards holding any off-default frame list their spec
// tables in the manifest, which is then written at version 2.
//
// Shard files are named after the manifest: "data.json" yields
// "data-000.gbz", "data-001.gbz", ...; the manifest records the names
// relative to its own directory.
func WriteDatasetAssigned(path string, coder codec.Coder, assign AssignFunc, labels []int, nShards, workers int, frame FrameFunc) (*Manifest, error) {
	total := len(labels)
	if total == 0 {
		return nil, fmt.Errorf("shard: dataset needs at least one frame")
	}
	// Reject bad label lists before compressing anything: the manifest
	// would fail validation anyway, but only after the expensive pack.
	seen := make(map[int]struct{}, total)
	for _, label := range labels {
		if _, dup := seen[label]; dup {
			return nil, fmt.Errorf("shard: duplicate frame label %d", label)
		}
		seen[label] = struct{}{}
	}
	if nShards < 1 {
		nShards = 1
	}
	if nShards > total {
		nShards = total
	}
	dir := filepath.Dir(path)
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(filepath.Base(path)))

	man := &Manifest{Version: ManifestVersion, Spec: coder.Spec()}
	var tmps []string
	defer func() {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}()

	var finals []string
	next := 0
	for s := 0; s < nShards; s++ {
		// Contiguous split: shard s covers [s·T/N, (s+1)·T/N).
		end := (s + 1) * total / nShards
		name := fmt.Sprintf("%s-%03d.gbz", base, s)
		tmp, crc, specs, err := writeShard(dir, coder, assign, labels[next:end], next, workers, frame)
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", s, name, err)
		}
		tmps = append(tmps, tmp)
		finals = append(finals, filepath.Join(dir, name))
		info := ShardInfo{
			Path:   name,
			Frames: end - next,
			Labels: append([]int(nil), labels[next:end]...),
			CRC32:  fmt.Sprintf("%08x", crc),
		}
		if len(specs) > 1 {
			// Mixed-codec shard: record its spec table and bump the
			// manifest format.
			info.Specs = specs
			man.Version = ManifestVersion2
		}
		man.Shards = append(man.Shards, info)
		next = end
	}

	// Every shard compressed cleanly; move them into place, then commit
	// the manifest. The shard names are durable before the manifest
	// references them — otherwise a crash could persist a manifest
	// pointing at shard files whose directory entries were lost
	// (Manifest.Write syncs the directory again for its own rename).
	committing := tmps
	tmps = nil
	if err := commitStores(dir, committing, finals); err != nil {
		return nil, err
	}
	if err := man.Write(path); err != nil {
		return nil, err
	}
	return man, nil
}

// WriteStore packs frames into one bare store file at path — the
// single-file counterpart of WriteDatasetAssigned, through the same
// temp file, reopen-and-parse check, rename and directory fsync a
// dataset's shards get, so a failed pack neither leaves a truncated
// store nor clobbers an existing one and a finished one survives a
// crash. A nil assign
// compresses every frame with coder; otherwise each frame compresses
// under its assigned codec and coder names the store's default spec.
func WriteStore(path string, coder codec.Coder, assign AssignFunc, labels []int, workers int, frame FrameFunc) error {
	dir := filepath.Dir(path)
	tmp, _, _, err := writeShard(dir, coder, assign, labels, 0, workers, frame)
	if err != nil {
		return err
	}
	return commitStores(dir, []string{tmp}, []string{path})
}

// commitStores renames finished temp stores to their final names and
// fsyncs the directory, which is what makes a rename survive a crash
// (see store.FsyncDir). Temp files it could not move are removed.
func commitStores(dir string, tmps, finals []string) error {
	for i, tmp := range tmps {
		if err := os.Rename(tmp, finals[i]); err != nil {
			for _, rest := range tmps[i:] {
				os.Remove(rest)
			}
			return err
		}
	}
	return store.FsyncDir(dir)
}

// writeShard packs one store into a temp file in dir and returns the
// temp path, the store's footer CRC, and its spec list (a dataset
// records the last two in its manifest); the caller renames it into
// place — a dataset once every shard succeeds. A nil assign compresses
// every frame with coder; otherwise each frame compresses under its
// assigned codec. The finished file is re-opened to read the CRC and
// specs, which doubles as a check that what was written parses.
func writeShard(dir string, coder codec.Coder, assign AssignFunc, labels []int, first, workers int, frame FrameFunc) (string, uint32, []string, error) {
	f, err := os.CreateTemp(dir, ".goblaz-pack-*")
	if err != nil {
		return "", 0, nil, err
	}
	tmp := f.Name()
	fail := func(err error) (string, uint32, []string, error) {
		f.Close()
		os.Remove(tmp)
		return "", 0, nil, err
	}
	w, err := store.NewWriter(f, coder.Spec())
	if err != nil {
		return fail(err)
	}
	if assign == nil {
		assign = func(int, *tensor.Tensor) (codec.Coder, error) { return coder, nil }
	}
	p := series.NewAssignedPipeline(assign, w.SinkAssigned(), workers)
	for i, label := range labels {
		t, err := frame(first + i)
		if err != nil {
			return fail(errors.Join(fmt.Errorf("frame %d: %w", first+i, err), p.Wait()))
		}
		p.Submit(label, t)
	}
	if err := p.Wait(); err != nil {
		return fail(err)
	}
	if err := w.Close(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", 0, nil, err
	}
	r, err := store.Open(tmp)
	if err != nil {
		os.Remove(tmp)
		return "", 0, nil, fmt.Errorf("written shard does not parse: %w", err)
	}
	crc := r.FooterCRC()
	specs := r.Specs()
	r.Close()
	return tmp, crc, specs, nil
}
