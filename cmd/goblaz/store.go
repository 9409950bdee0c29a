package main

// The store subcommands: pack a series of raw frames into the seekable
// multi-frame container (internal/store) — or, with -shards, into a
// sharded dataset — unpack frames back out, inspect the index, and
// serve stores and datasets over the v1 HTTP API.
//
//	goblaz pack    -shape 64,64 -codec zfp:rate=16 [-workers 4] out.gbz f0.f64 f1.f64 ...
//	goblaz pack    -shape 64,64 -shards 4 out.json f0.f64 f1.f64 ...
//	goblaz unpack  [-frame LABEL] out.gbz prefix        → prefix<label>.f64
//	goblaz inspect out.gbz              (or a manifest, a topology, or an http:// URL)
//	goblaz serve   -addr :8080 out.gbz [name=other.gbz ...] [runs=out.json ...]
//	goblaz serve   -addr :8080 -topology cluster.json
//
// inspect accepts a store path, a dataset manifest, a cluster
// topology, or a serving URL interchangeably — all resolve to an
// api.Backend (see backend.go). serve mounts its first argument on the
// default /v1 routes and every argument (named by `name=path`, or the
// file's base name) under /v1/stores/{name}/ or — for manifests and
// topologies — /v1/datasets/{name}/; -topology adds a cluster
// coordinator mount, turning this process into the query tier in front
// of remote shard servers.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/api/httpapi"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

func runPack(args []string) error {
	var tf tuneFlags
	o, paths, err := parseOptions("pack", args, func(fs *flag.FlagSet) { tf.register(fs, true) })
	if err != nil {
		return err
	}
	if o.shape == nil || len(paths) < 2 {
		return fmt.Errorf("pack needs -shape, an OUT path, and at least one frame file")
	}
	out, frames := paths[0], paths[1:]
	coder, err := codec.Lookup(o.spec)
	if err != nil {
		return err
	}
	// -auto runs the tune trial pass first and packs each frame under its
	// chosen codec (mixed-codec v2 store); the -codec/-block flags still
	// set the default spec and lead the candidate list.
	var assign shard.AssignFunc
	if tf.auto {
		rep, err := tf.run(o, frames)
		if err != nil {
			return err
		}
		fmt.Printf("auto-assigned codecs over %d candidates:\n", len(rep.Candidates))
		summarizeTune(rep)
		fn, err := rep.Coders(coder.Spec())
		if err != nil {
			return err
		}
		assign = fn
	}
	labels := make([]int, len(frames)) // labels are positions
	for i := range labels {
		labels[i] = i
	}
	frame := func(i int) (*tensor.Tensor, error) {
		t, err := readTensor(frames[i], o.shape)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", frames[i], err)
		}
		return t, nil
	}
	// -shards 1 is a valid (single-shard) dataset: the flag decides the
	// output format, manifest vs bare store, not just the split.
	if o.shards > 0 {
		return packSharded(o, coder, assign, out, labels, frame)
	}
	if err := shard.WriteStore(out, coder, assign, labels, o.workers, frame); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	raw := int64(len(frames)) * int64(tensor8Bytes(o.shape))
	spec := coder.Spec()
	if assign != nil {
		spec = "per-frame codecs (default " + spec + ")"
	}
	fmt.Printf("packed %d frames, %d → %d bytes with %s (ratio %.2f)\n",
		len(frames), raw, st.Size(), spec, float64(raw)/float64(st.Size()))
	return nil
}

// packSharded writes a sharded dataset: OUT is the manifest path, the
// shard stores land next to it (see shard.WriteDatasetAssigned). A
// non-nil assign (pack -auto) compresses each frame under its assigned
// codec.
func packSharded(o *options, coder codec.Coder, assign shard.AssignFunc, out string, labels []int, frame shard.FrameFunc) error {
	man, err := shard.WriteDatasetAssigned(out, coder, assign, labels, o.shards, o.workers, frame)
	if err != nil {
		return err
	}
	var packed int64
	for _, sh := range man.Shards {
		st, err := os.Stat(filepath.Join(filepath.Dir(out), sh.Path))
		if err != nil {
			return err
		}
		packed += st.Size()
	}
	raw := int64(len(labels)) * int64(tensor8Bytes(o.shape))
	fmt.Printf("packed %d frames into %d shards, %d → %d bytes with %s (ratio %.2f)\n",
		len(labels), len(man.Shards), raw, packed, coder.Spec(), float64(raw)/float64(packed))
	return nil
}

func tensor8Bytes(shape []int) int {
	n := 8
	for _, e := range shape {
		n *= e
	}
	return n
}

func runUnpack(args []string) error {
	fs := flag.NewFlagSet("unpack", flag.ExitOnError)
	frame := fs.Int("frame", -1, "unpack only the frame with this label")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("unpack needs IN and OUTPREFIX paths")
	}
	r, err := store.Open(rest[0])
	if err != nil {
		return err
	}
	defer r.Close()
	unpackOne := func(i int) error {
		info := r.Info(i)
		t, err := r.Decompress(i)
		if err != nil {
			return err
		}
		path := fmt.Sprintf("%s%d.f64", rest[1], info.Label)
		if err := writeTensor(path, t); err != nil {
			return err
		}
		fmt.Printf("frame %d (label %d) → %s %v\n", i, info.Label, path, t.Shape())
		return nil
	}
	if *frame >= 0 {
		i, ok := r.IndexOf(*frame)
		if !ok {
			return fmt.Errorf("no frame with label %d", *frame)
		}
		return unpackOne(i)
	}
	for i := 0; i < r.Len(); i++ {
		if err := unpackOne(i); err != nil {
			return err
		}
	}
	return nil
}

// runInspect prints a store's codec, frame count, and index. The
// argument may be a local path or a serving URL — both resolve through
// the v1 Backend contract.
func runInspect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("inspect needs one store path or URL")
	}
	_, b, closeB, err := open(args[0], query.Options{}, 30*time.Second)
	if err != nil {
		return err
	}
	defer closeB()
	ctx := context.Background()
	info, err := b.Spec(ctx)
	if err != nil {
		return err
	}
	frames, err := b.Frames(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("codec:   %s\n", info.Spec)
	if len(info.Specs) > 1 {
		fmt.Printf("specs:   %s\n", strings.Join(info.Specs, ", "))
	}
	fmt.Printf("frames:  %d\n", info.Frames)
	var total int64
	for _, e := range frames {
		total += e.Length
	}
	fmt.Printf("payload: %d bytes\n", total)
	if len(frames) > 0 {
		// Mixed-codec stores get a spec column; "·" marks the default.
		mixed := len(info.Specs) > 1
		if mixed {
			fmt.Printf("%8s %8s %12s %10s %10s  %s\n", "frame", "label", "offset", "length", "crc32", "spec")
		} else {
			fmt.Printf("%8s %8s %12s %10s %10s\n", "frame", "label", "offset", "length", "crc32")
		}
		for _, e := range frames {
			if mixed {
				spec := e.Spec
				if spec == "" {
					spec = "·"
				}
				fmt.Printf("%8d %8d %12d %10d %10s  %s\n", e.Index, e.Label, e.Offset, e.Length, e.CRC32, spec)
			} else {
				fmt.Printf("%8d %8d %12d %10d %10s\n", e.Index, e.Label, e.Offset, e.Length, e.CRC32)
			}
		}
	}
	return nil
}

// mountName derives a store's mount name under /v1/stores/ from its
// argument: an explicit NAME=PATH, or the file's base name without
// extension. explicit reports whether the name was caller-chosen.
func mountName(arg string) (name, path string, explicit bool) {
	if name, path, ok := strings.Cut(arg, "="); ok && !isServiceURL(arg) && name != "" {
		return name, path, true
	}
	base := filepath.Base(arg)
	return strings.TrimSuffix(base, filepath.Ext(base)), arg, false
}

// openMounts opens every [name=]path argument — a store file or a
// dataset manifest as a Local backend, a cluster topology as a remote
// Coordinator — and names its mount. The first argument doubles as the
// default (unprefixed) /v1 mount, preserving the single-store API.
func openMounts(args []string, cacheBytes int64) (def api.Backend, stores, datasets map[string]api.Backend, closeAll func(), err error) {
	stores = map[string]api.Backend{}
	datasets = map[string]api.Backend{}
	var closers []func() error
	closeAll = func() {
		for _, c := range closers {
			c()
		}
	}
	fail := func(err error) (api.Backend, map[string]api.Backend, map[string]api.Backend, func(), error) {
		closeAll()
		return nil, nil, nil, nil, err
	}
	for _, arg := range args {
		name, path, explicit := mountName(arg)
		if isServiceURL(path) {
			return fail(fmt.Errorf("store %s: serve mounts files, not serving URLs", path))
		}
		kind, b, closeB, err := open(path, query.Options{CacheBytes: cacheBytes}, 0)
		if err != nil {
			return fail(fmt.Errorf("%s %s: %w", kind, path, err))
		}
		closers = append(closers, closeB)
		// A topology mount prefers the dataset name the file declares —
		// "serve -topology cluster.json" mounts /v1/datasets/{dataset} —
		// unless the argument named it explicitly.
		if co, ok := b.(*cluster.Coordinator); ok && !explicit && co.Topology().Dataset != "" {
			name = co.Topology().Dataset
		}
		if _, dup := stores[name]; dup {
			return fail(fmt.Errorf("duplicate store mount %q (disambiguate with name=path)", name))
		}
		if _, dup := datasets[name]; dup {
			return fail(fmt.Errorf("duplicate dataset mount %q (disambiguate with name=path)", name))
		}
		mount := "/v1/datasets/"
		if kind == kindStore {
			mount = "/v1/stores/"
			stores[name] = b
		} else {
			datasets[name] = b
		}
		if def == nil {
			def = b
		}
		info, _ := b.Spec(context.Background())
		if info.Shards > 0 {
			fmt.Printf("mounted %s at %s%s (%d frames, %d shards, codec %s)\n",
				path, mount, name, info.Frames, info.Shards, info.Spec)
		} else {
			fmt.Printf("mounted %s at %s%s (%d frames, codec %s)\n", path, mount, name, info.Frames, info.Spec)
		}
	}
	return def, stores, datasets, closeAll, nil
}

// limitMounts wraps every mount in admission control and returns the
// wrapped default. The default mount aliases one of the named entries
// (openMounts reuses the first backend), so wrapping goes through an
// identity map — both routes must share one limiter, not get one each.
func limitMounts(def api.Backend, stores, datasets map[string]api.Backend, opts api.LimitOptions) api.Backend {
	if opts.MaxConcurrent <= 0 {
		return def
	}
	wrapped := map[api.Backend]api.Backend{}
	lim := func(b api.Backend) api.Backend {
		if b == nil {
			return nil
		}
		if w, ok := wrapped[b]; ok {
			return w
		}
		w := api.Limit(b, opts)
		wrapped[b] = w
		return w
	}
	for name, b := range stores {
		stores[name] = lim(b)
	}
	for name, b := range datasets {
		datasets[name] = lim(b)
	}
	return lim(def)
}

// debugServer exposes net/http/pprof — plus the metrics endpoints, so
// an operator can scrape without opening them on the public listener —
// on its own mux and address. Profiling data (and the DefaultServeMux
// side effects of importing net/http/pprof) stay on an operator-chosen,
// typically loopback, port.
func debugServer(addr string, logf func(string, ...any)) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	mux.Handle("/metrics", httpapi.MetricsProm(obs.Default))
	mux.Handle("/v1/debug/metrics", httpapi.MetricsJSON(obs.Default))
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("debug server: %v", err)
		}
	}()
	return srv
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "decoded-frame LRU cache budget in bytes, per store (0 disables)")
	timeout := fs.Duration("timeout", 55*time.Second, "per-request deadline; canceled work stops the query engine (0 disables)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; keep it off public interfaces)")
	maxConcurrent := fs.Int("max-concurrent", 0, "per-mount concurrent decode/query limit (0 disables admission control)")
	maxQueue := fs.Int("max-queue", 0, "requests allowed to wait for a slot once -max-concurrent are busy")
	queueWait := fs.Duration("queue-wait", api.DefaultQueueWait, "how long a queued request waits before being shed with 429")
	metrics := fs.Bool("metrics", false, "expose Prometheus text exposition at GET /metrics on the main listener (always on -debug-addr)")
	logJSON := fs.Bool("log-json", false, "emit the access log as JSON lines instead of key=value")
	slowQuery := fs.Duration("slow-query", 0, "log spans (queries, decodes, scatters) slower than this threshold (0 disables)")
	topology := fs.String("topology", "", "mount a cluster topology's coordinator beside any store arguments (see internal/cluster)")
	ingestMount := fs.String("ingest", "", "mount an appendable store ([name=]path) accepting POST .../frames; created if missing (needs -ingest-spec)")
	ingestSpec := fs.String("ingest-spec", "", "codec spec for a newly created -ingest store")
	commitEvery := fs.Int("commit-every", 64, "-ingest: commit after this many pending frames (0 disables the count trigger)")
	commitBytes := fs.Int64("commit-bytes", 0, "-ingest: commit after this many pending payload bytes (0 disables)")
	commitInterval := fs.Duration("commit-interval", 5*time.Second, "-ingest: commit pending frames at least this often (0 disables)")
	compactBytes := fs.Int64("compact-bytes", 4<<20, "-ingest: rewrite the store once superseded footers and record framing exceed this many dead bytes (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mounts := fs.Args()
	if *topology != "" {
		mounts = append(mounts, *topology)
	}
	if len(mounts) < 1 && *ingestMount == "" {
		return fmt.Errorf("serve needs at least one store path ([name=]path ...), -topology, or -ingest")
	}

	def, stores, datasets, closeAll, err := openMounts(mounts, *cacheBytes)
	if err != nil {
		return err
	}
	defer closeAll()
	if *ingestMount != "" {
		name, path, _ := mountName(*ingestMount)
		if _, dup := datasets[name]; dup {
			return fmt.Errorf("duplicate dataset mount %q (disambiguate with name=path)", name)
		}
		is, err := openAppendable(path, "-ingest-spec", ingest.Options{
			Spec: *ingestSpec, CommitFrames: *commitEvery, CommitBytes: *commitBytes,
			CommitInterval: *commitInterval, CompactBytes: *compactBytes, CacheBytes: *cacheBytes,
		})
		if err != nil {
			return fmt.Errorf("ingest store %s: %w", path, err)
		}
		defer is.Close()
		datasets[name] = is
		if def == nil {
			def = is
		}
		info, _ := is.Spec(context.Background())
		fmt.Printf("mounted %s at /v1/datasets/%s (ingest, %d frames, codec %s)\n", path, name, info.Frames, info.Spec)
	}
	def = limitMounts(def, stores, datasets, api.LimitOptions{
		MaxConcurrent: *maxConcurrent, MaxQueue: *maxQueue, QueueWait: *queueWait,
	})

	logger := log.New(os.Stderr, "", log.LstdFlags)
	obs.DefaultTracer.Configure(*slowQuery, logger.Printf)
	if *debugAddr != "" {
		dbg := debugServer(*debugAddr, logger.Printf)
		defer dbg.Close()
		fmt.Printf("pprof+metrics debug server on %s\n", *debugAddr)
	}
	// Readiness flips on once the mounts are open and the listener is
	// up, and off again the moment shutdown begins — so cluster health
	// probes (GET /readyz) never route traffic to a warming or draining
	// process. Liveness (/healthz) stays unconditional.
	var ready atomic.Bool
	handler := httpapi.New(def, stores, httpapi.Options{
		RequestTimeout: *timeout,
		Logf:           logger.Printf,
		Datasets:       datasets,
		ExposeMetrics:  *metrics,
		LogJSON:        *logJSON,
		Ready:          ready.Load,
	})
	// Server-level timeouts keep a slow or stalled client from pinning a
	// connection (and its decompression work) forever; WriteTimeout
	// bounds the largest frame we are willing to stream and must outlast
	// the per-request deadline so timeouts answer as envelopes, not
	// resets — hence it is derived from -timeout when that is longer,
	// and disabled entirely when -timeout 0 asks for unbounded requests.
	writeTimeout := 60 * time.Second
	switch {
	case *timeout <= 0:
		writeTimeout = 0
	case *timeout+5*time.Second > writeTimeout:
		writeTimeout = *timeout + 5*time.Second
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Listen explicitly (rather than ListenAndServe) so ":0" works for
	// multi-process tests and scripts: the bound address is printed,
	// not the requested one.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	ready.Store(true)
	fmt.Printf("serving %d store(s) and %d dataset(s) on %s\n", len(stores), len(datasets), ln.Addr())
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately
		ready.Store(false)
		fmt.Println("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errCh // Serve has returned ErrServerClosed
		return nil
	}
}
