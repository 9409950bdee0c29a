package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Dataset is a query.Source, which is what backs its engine.
var _ query.Source = (*Dataset)(nil)

// frameRef locates a global frame position inside its shard.
type frameRef struct {
	shard, local int
}

// Dataset is an open sharded dataset: one store.Reader per shard and
// their concatenation in manifest order as one store.Inventory, whose
// Info keeps each frame's offsets in its shard's file and whose one
// spec table (Specs) interns every shard's in shard order. It
// implements query.Source as that view — global frame i lives in the
// shard covering i, at position i minus that shard's base — and answers
// every request through one query.Engine over it, so it behaves exactly
// like an engine over a single store holding the same frames in order.
//
// A Dataset is safe for concurrent use: readers are concurrency-safe
// and the Inventory has no mutating method.
type Dataset struct {
	store.Inventory
	readers []*store.Reader
	refs    []frameRef // global position → shard location
	engine  *query.Engine
}

// Open opens the dataset described by the manifest at path. Shard paths
// resolve relative to the manifest's directory. Every shard must carry
// the manifest's codec spec and match its label list — a manifest that
// drifted from its stores fails here, not mid-query. opts configures
// the dataset's query engine. Close releases the file handles.
func Open(path string, opts query.Options) (*Dataset, error) {
	man, err := LoadManifest(path)
	if err != nil {
		return nil, err
	}
	idx, err := store.NewIndex(man.Spec)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	d := &Dataset{}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()
	for s, sh := range man.Shards {
		// Mapped where supported: payload reads across every shard serve
		// zero-copy, same as a single mmap-opened store.
		r, err := store.OpenReaderMmap(filepath.Join(dir, sh.Path))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		d.readers = append(d.readers, r)
		if r.Spec() != man.Spec {
			return nil, fmt.Errorf("shard: %s has codec spec %q, manifest says %q", sh.Path, r.Spec(), man.Spec)
		}
		if len(sh.Specs) > 0 {
			got := r.Specs()
			match := len(got) == len(sh.Specs)
			for k := 0; match && k < len(got); k++ {
				match = got[k] == sh.Specs[k]
			}
			if !match {
				return nil, fmt.Errorf("shard: %s uses codec specs %v, manifest says %v (stale or swapped shard file?)",
					sh.Path, got, sh.Specs)
			}
		} else if len(r.Specs()) > 1 {
			return nil, fmt.Errorf("shard: %s is mixed-codec (%v) but the manifest lists no specs for it",
				sh.Path, r.Specs())
		}
		if r.Len() != sh.Frames {
			return nil, fmt.Errorf("shard: %s holds %d frames, manifest says %d", sh.Path, r.Len(), sh.Frames)
		}
		if sh.CRC32 != "" {
			if got := fmt.Sprintf("%08x", r.FooterCRC()); got != sh.CRC32 {
				return nil, fmt.Errorf("shard: %s footer CRC %s, manifest says %s (stale or swapped shard file?)",
					sh.Path, got, sh.CRC32)
			}
		}
		for i := 0; i < r.Len(); i++ {
			label := r.Info(i).Label
			if label != sh.Labels[i] {
				return nil, fmt.Errorf("shard: %s frame %d has label %d, manifest says %d",
					sh.Path, i, label, sh.Labels[i])
			}
			d.refs = append(d.refs, frameRef{shard: s, local: i})
		}
		if err := idx.Extend(&r.Inventory); err != nil {
			return nil, fmt.Errorf("shard: %s: %w", sh.Path, err)
		}
	}
	d.Inventory = idx.Inventory
	d.engine = query.New(d, opts)
	ok = true
	return d, nil
}

// Query answers req over the whole dataset with single-store semantics:
// one engine over the concatenated view runs every frame's work and
// folds reductions in global frame order, so answers are bit-identical
// to a single store's.
func (d *Dataset) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	return d.engine.Run(ctx, req)
}

// Close releases every shard's file handle.
func (d *Dataset) Close() error {
	var errs []error
	for _, r := range d.readers {
		if r != nil {
			errs = append(errs, r.Close())
		}
	}
	return errors.Join(errs...)
}

// Shards returns the number of shards.
func (d *Dataset) Shards() int { return len(d.readers) }

// FrameKey returns the stable identity of global frame i — the owning
// shard reader's key (query.FrameKeyer).
func (d *Dataset) FrameKey(i int) (source uint64, frame int) {
	ref := d.refs[i]
	return d.readers[ref.shard].FrameKey(ref.local)
}

// FrameCoder returns the codec that wrote global frame i
// (query.FrameSpeccer).
func (d *Dataset) FrameCoder(i int) (codec.Coder, error) {
	ref := d.refs[i]
	return d.readers[ref.shard].FrameCoder(ref.local)
}

// Frame reads and decodes global frame i into the codec's compressed
// representation.
func (d *Dataset) Frame(i int) (codec.Compressed, error) {
	ref := d.refs[i]
	return d.readers[ref.shard].Frame(ref.local)
}

// Decompress reads, decodes, and fully decompresses global frame i.
func (d *Dataset) Decompress(i int) (*tensor.Tensor, error) {
	ref := d.refs[i]
	return d.readers[ref.shard].Decompress(ref.local)
}

// Payload reads the raw encoded bytes of global frame i and verifies
// their checksum.
func (d *Dataset) Payload(i int) ([]byte, error) {
	ref := d.refs[i]
	return d.readers[ref.shard].Payload(ref.local)
}

// PayloadAppend appends the verified encoded bytes of global frame i
// to dst (query.PayloadAppender).
func (d *Dataset) PayloadAppend(dst []byte, i int) ([]byte, error) {
	ref := d.refs[i]
	return d.readers[ref.shard].PayloadAppend(dst, ref.local)
}

// PayloadReader returns a positioned reader over the verified encoded
// bytes of global frame i, for zero-copy HTTP serving.
func (d *Dataset) PayloadReader(i int) (*io.SectionReader, error) {
	ref := d.refs[i]
	return d.readers[ref.shard].PayloadReader(ref.local)
}
