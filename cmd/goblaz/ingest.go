package main

// goblaz ingest streams raw frame files into an appendable store —
// either a local one (opened or created in place) or a remote serving
// instance's ingest route (TARGET is a URL). Frames are labeled
// sequentially; -label-start -1 (the default) continues after the
// store's current maximum label, so repeated invocations append.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/ingest"
)

func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	shapeStr := fs.String("shape", "", "comma-separated frame shape (required)")
	spec := fs.String("spec", "", "codec spec; required to create a new local store, optional otherwise (overrides per-frame assignment)")
	labelStart := fs.Int("label-start", -1, "label of the first frame (-1: continue after the store's max label)")
	batch := fs.Int("batch", 16, "frames per ingest batch (one durability fsync each)")
	commitEvery := fs.Int("commit-every", 64, "local stores: commit after this many pending frames (0 disables)")
	commitBytes := fs.Int64("commit-bytes", 0, "local stores: commit after this many pending payload bytes (0 disables)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shapeStr == "" || fs.NArg() < 2 {
		return fmt.Errorf("ingest needs -shape, a TARGET (store path or URL), and at least one frame file")
	}
	shape, err := parseInts(*shapeStr)
	if err != nil {
		return err
	}
	if *batch < 1 {
		*batch = 1
	}
	target, frames := fs.Arg(0), fs.Args()[1:]

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Resolve the sink: a URL ingests through the SDK, a path through
	// the appendable store directly (created on first use when -spec
	// names the codec).
	var sink interface {
		api.Backend
		api.Ingestor
	}
	if isServiceURL(target) {
		c, err := api.NewClient(target, api.ClientOptions{})
		if err != nil {
			return err
		}
		sink = c
	} else {
		s, err := openAppendable(target, "-spec",
			ingest.Options{Spec: *spec, CommitFrames: *commitEvery, CommitBytes: *commitBytes})
		if err != nil {
			return err
		}
		defer s.Close()
		sink = s
	}

	next := *labelStart
	if next < 0 {
		next, err = nextLabel(ctx, sink)
		if err != nil {
			return err
		}
	}

	start := time.Now()
	sent := 0
	pending := make([]api.IngestFrame, 0, *batch)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		res, err := sink.Ingest(ctx, pending)
		if err != nil {
			return err
		}
		sent += res.Accepted
		pending = pending[:0]
		return nil
	}
	for _, path := range frames {
		t, err := readTensor(path, shape)
		if err != nil {
			return err
		}
		f := api.IngestFrame{Label: next, Shape: shape, Data: t.Data()}
		if *spec != "" {
			f.Spec = *spec
		}
		pending = append(pending, f)
		next++
		if len(pending) >= *batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("ingested %d frame(s) in %s (%.1f frames/s), labels %d..%d\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds(), next-sent, next-1)
	return nil
}

// openAppendable opens the store file at path for writing, creating it
// when missing — which needs opts.Spec, set by the flag specFlag names.
// Manifests and topologies are read-only views over files ingest must
// not append to, so they are refused by name instead of being handed to
// the store parser.
func openAppendable(path, specFlag string, opts ingest.Options) (*ingest.Store, error) {
	if kind := classify(path); kind != kindStore {
		return nil, fmt.Errorf("%s is a %s, which is read-only: ingest writes to a store file or to a serving URL's ingest route", path, kind)
	}
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if opts.Spec == "" {
			return nil, fmt.Errorf("creating %s needs %s", path, specFlag)
		}
		return ingest.Create(path, opts)
	}
	return ingest.Open(path, opts)
}

// nextLabel picks the label after the target's current maximum, so
// successive producer runs append instead of colliding.
func nextLabel(ctx context.Context, b api.Backend) (int, error) {
	infos, err := b.Frames(ctx)
	if err != nil {
		return 0, err
	}
	next := 0
	for _, e := range infos {
		if e.Label >= next {
			next = e.Label + 1
		}
	}
	return next, nil
}
