package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

var _ api.Backend = (*Coordinator)(nil)

// Options tunes a Coordinator beyond what the topology file carries —
// the knobs that belong to the process, not the cluster.
type Options struct {
	// HTTPClient overrides the transport under every endpoint's SDK
	// client and the health prober (e.g. a httptest server's client).
	HTTPClient *http.Client
	// ClientTimeout overrides the topology's per-attempt client timeout
	// when > 0.
	ClientTimeout time.Duration
	// DisableProbes turns the background health prober off; tests drive
	// the state machine deterministically with ProbeNow instead.
	DisableProbes bool
}

// Coordinator turns the shard servers of a Topology into one logical
// dataset: an api.Backend that answers like a Local over the
// concatenated data. At open it discovers every shard's frame inventory
// over the wire and freezes the global frame order (topology order,
// shard-local commit order within); queries compile against that view,
// scatter to the owning shards concurrently, and gather by folding the
// shards' partial results (scatter.go). A metric request that couples
// frames on different shards runs whole here, on a query engine over the
// frames' stored payloads. Every answer is bit-identical to a Local's
// except a scattered reduction's sums: they fold per-shard moment
// partials, which can move them by an ulp (query.Moments).
type Coordinator struct {
	topo   *Topology
	groups []*group

	infos   []api.FrameInfo        // global commit order, Index remapped
	crcs    []uint32               // global position → payload CRC32 at discovery
	labels  map[int]int            // label → global position
	owners  []int                  // global position → index into groups
	coders  map[string]codec.Coder // every discovered spec → its codec
	specs   []string               // every discovered spec, default first
	scatter scatter                // holds the agreed spec(s) and each shard's base

	probeHC  *http.Client
	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// Open loads, validates, and connects the topology at path. The
// returned Coordinator has discovered every shard's inventory; Close
// stops its background prober.
func Open(path string, opts Options) (*Coordinator, error) {
	topo, err := LoadTopology(path)
	if err != nil {
		return nil, badTopology(err)
	}
	return New(topo, opts)
}

// badTopology classifies an unreadable or invalid topology as the
// caller's error, so its message (which names the offending field)
// reaches the operator instead of a constant internal-error text.
func badTopology(err error) error { return api.Errorf(api.CodeBadRequest, "%v", err) }

// New connects an already-loaded topology. Discovery runs once, here:
// every shard's Spec and Frames are fetched (through replica failover,
// so one dead replica does not block startup), specs are checked for
// agreement, and the global frame order is frozen.
func New(topo *Topology, opts Options) (*Coordinator, error) {
	if err := topo.Validate(); err != nil {
		return nil, badTopology(err)
	}
	timeout := time.Duration(topo.Client.Timeout)
	if opts.ClientTimeout > 0 {
		timeout = opts.ClientTimeout
	}
	c := &Coordinator{
		topo:    topo,
		labels:  map[int]int{},
		probeHC: opts.HTTPClient,
		stop:    make(chan struct{}),
	}
	if c.probeHC == nil {
		c.probeHC = http.DefaultClient
	}
	for _, sh := range topo.Shards {
		g := &group{
			name:      sh.Name,
			cooldown:  topo.Probe.cooldown(),
			downAfter: topo.Probe.downAfter(),
		}
		for _, rep := range sh.Replicas {
			ep, err := newEndpoint(rep, topo.Client, timeout, opts.HTTPClient)
			if err != nil {
				return nil, api.FromError(err)
			}
			g.endpoints = append(g.endpoints, ep)
		}
		c.groups = append(c.groups, g)
	}
	if err := c.discover(context.Background()); err != nil {
		return nil, err
	}
	if !opts.DisableProbes {
		c.probeWG.Add(1)
		go c.probeLoop(topo.Probe.interval())
	}
	return c, nil
}

// Close stops the background prober. It never closes in-flight calls;
// the per-endpoint SDK clients are stateless beyond pooled
// connections.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
	return nil
}

// Topology exposes the loaded topology, for callers that need shard
// names or the dataset name.
func (c *Coordinator) Topology() *Topology { return c.topo }

// discover fetches every shard's inventory concurrently, freezes the
// global frame order, and resolves a codec for every spec.
func (c *Coordinator) discover(ctx context.Context) error {
	type inventory struct {
		info  api.StoreInfo
		index []api.FrameInfo
	}
	invs := make([]inventory, len(c.groups))
	errs := make([]error, len(c.groups))
	var wg sync.WaitGroup
	for s, g := range c.groups {
		wg.Add(1)
		go func(s int, g *group) {
			defer wg.Done()
			invs[s], errs[s] = callOwner(ctx, g, uint64(s), func(cl *api.Client) (inv inventory, err error) {
				if inv.info, err = cl.Spec(ctx); err != nil {
					return inv, err
				}
				inv.index, err = cl.Frames(ctx)
				return inv, err
			})
		}(s, g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return api.FromError(err)
	}

	c.scatter = scatter{bases: make([]int, len(invs)), spec: invs[0].info.Spec, run: c.runPart}
	specs := []string{c.scatter.spec}
	for s, inv := range invs {
		g := c.groups[s]
		if inv.info.Spec != c.scatter.spec {
			return api.Errorf(api.CodeInternal, "shard %s default spec %q disagrees with %s's %q",
				g.name, inv.info.Spec, c.groups[0].name, c.scatter.spec)
		}
		for _, spec := range inv.info.Specs {
			if !slices.Contains(specs, spec) {
				specs = append(specs, spec)
			}
		}
		c.scatter.bases[s] = len(c.infos)
		for _, e := range inv.index {
			if prev, dup := c.labels[e.Label]; dup {
				return api.Errorf(api.CodeInternal, "label %d on shard %s duplicates global frame %d",
					e.Label, g.name, prev)
			}
			crc, err := strconv.ParseUint(e.CRC32, 16, 32)
			if err != nil || len(e.CRC32) != 8 {
				return api.Errorf(api.CodeInternal, "label %d on shard %s has malformed crc32 %q",
					e.Label, g.name, e.CRC32)
			}
			e.Index = len(c.infos)
			c.labels[e.Label] = e.Index
			c.owners = append(c.owners, s)
			c.crcs = append(c.crcs, uint32(crc))
			c.infos = append(c.infos, e)
		}
	}
	c.coders = make(map[string]codec.Coder, len(specs))
	for _, spec := range specs {
		cd, err := codec.Lookup(spec)
		if err != nil {
			return api.Errorf(api.CodeInternal, "discovered spec %q: %v", spec, err)
		}
		coder, ok := cd.(codec.Coder)
		if !ok {
			return api.Errorf(api.CodeInternal, "discovered spec %q does not support byte serialization", spec)
		}
		c.coders[spec] = coder
	}
	c.specs = specs
	if len(specs) > 1 {
		c.scatter.specs = specs
	}
	return nil
}

// ---- query.Index over the discovered inventory -----------------------

// coordIndex is what query.Compile resolves selections against: frame
// count, labels, and label lookup.
type coordIndex struct{ c *Coordinator }

func (s coordIndex) Len() int                      { return len(s.c.infos) }
func (s coordIndex) IndexOf(label int) (int, bool) { i, ok := s.c.labels[label]; return i, ok }

// Info carries the label only: selection and result labels are all
// Compile and the engine read, and the byte-level fields belong to the
// owning shard's file.
func (s coordIndex) Info(i int) store.FrameInfo {
	return store.FrameInfo{Label: s.c.infos[i].Label}
}

// fetched is the query.Source a cross-shard metric runs on: the
// discovered inventory plus the decoded payloads of the request's
// coupled frames — the only frames its plan reads. frames covers the
// selection's span of global positions, so a lookup is one index.
type fetched struct {
	coordIndex
	lo     int                // global position of frames[0], the selection's first
	frames []codec.Compressed // selected frames at position − lo; nil between them
	ref    int                // the reference's global position; −1 in pair mode
	refC   codec.Compressed
}

func (s *fetched) FrameSpec(i int) string                { return s.c.frameSpec(i) }
func (s *fetched) FrameCoder(i int) (codec.Coder, error) { return s.c.coders[s.c.frameSpec(i)], nil }
func (s *fetched) Specs() []string                       { return s.c.specs }

func (s *fetched) Frame(i int) (codec.Compressed, error) {
	if i == s.ref {
		return s.refC, nil
	}
	if j := i - s.lo; j >= 0 && j < len(s.frames) && s.frames[j] != nil {
		return s.frames[j], nil
	}
	return nil, api.Errorf(api.CodeInternal, "frame %d was not fetched", s.c.infos[i].Label)
}

func (s *fetched) Decompress(i int) (*tensor.Tensor, error) {
	fc, err := s.Frame(i)
	if err != nil {
		return nil, err
	}
	return s.c.coders[s.c.frameSpec(i)].Decompress(fc)
}

// ---- Backend ---------------------------------------------------------

func (c *Coordinator) Spec(ctx context.Context) (api.StoreInfo, error) {
	if err := ctx.Err(); err != nil {
		return api.StoreInfo{}, api.FromError(err)
	}
	return api.StoreInfo{
		Spec: c.scatter.spec, Specs: append([]string(nil), c.scatter.specs...),
		Frames: len(c.infos), Shards: len(c.groups),
	}, nil
}

func (c *Coordinator) Frames(ctx context.Context) ([]api.FrameInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromError(err)
	}
	return append([]api.FrameInfo(nil), c.infos...), nil
}

// owner resolves a label to its global position and owning shard.
func (c *Coordinator) owner(ctx context.Context, label int) (int, *group, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, api.FromError(err)
	}
	i, ok := c.labels[label]
	if !ok {
		return 0, nil, api.FromError(fmt.Errorf("no frame with label %d: %w", label, api.ErrNotFound))
	}
	return i, c.groups[c.owners[i]], nil
}

// callOwner is group.call for a request that returns a value: fn runs
// against g's replicas in health order, and the first success is the
// answer.
func callOwner[T any](ctx context.Context, g *group, affinity uint64, fn func(*api.Client) (T, error)) (T, error) {
	var out T
	err := g.call(ctx, affinity, func(cl *api.Client) error {
		v, err := fn(cl)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// FrameInfo resolves one label from the discovered inventory, without
// a network hop.
func (c *Coordinator) FrameInfo(ctx context.Context, label int) (api.FrameInfo, error) {
	i, _, err := c.owner(ctx, label)
	if err != nil {
		return api.FrameInfo{}, err
	}
	return c.infos[i], nil
}

func (c *Coordinator) Frame(ctx context.Context, label int) (*api.Frame, error) {
	_, g, err := c.owner(ctx, label)
	if err != nil {
		return nil, err
	}
	return callOwner(ctx, g, affinity(label), func(cl *api.Client) (*api.Frame, error) {
		return cl.Frame(ctx, label)
	})
}

// Payload proxies the raw compressed bytes from the owning shard,
// checked against the CRC discovery recorded.
func (c *Coordinator) Payload(ctx context.Context, label int) ([]byte, error) {
	i, _, err := c.owner(ctx, label)
	if err != nil {
		return nil, err
	}
	return c.payload(ctx, i)
}

// PayloadReader reads the proxied payload (Payload) from memory: the
// coordinator holds no file to seek in.
func (c *Coordinator) PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error) {
	data, err := c.Payload(ctx, label)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

// payload fetches global frame i's stored bytes from its owning shard,
// with replica failover. Each replica's answer must carry the CRC32
// discovery recorded for the frame: a replica whose store changed under
// the same label since then fails with CodeInternal, so it is demoted
// and the call fails over as from a corrupt store, and nothing is ever
// computed from bytes of another frame generation or spec.
func (c *Coordinator) payload(ctx context.Context, i int) ([]byte, error) {
	label, want := c.infos[i].Label, c.crcs[i]
	return callOwner(ctx, c.groups[c.owners[i]], affinity(label), func(cl *api.Client) ([]byte, error) {
		data, err := cl.Payload(ctx, label)
		if err != nil {
			return nil, err
		}
		if got := crc32.ChecksumIEEE(data); got != want {
			return nil, api.Errorf(api.CodeInternal,
				"frame %d payload has crc32 %08x, discovery recorded %08x", label, got, want)
		}
		return data, nil
	})
}

// frameCall routes a per-frame request to the owning shard and remaps
// the answer's index to the global position.
func (c *Coordinator) frameCall(ctx context.Context, label int, fn func(*api.Client) (*query.FrameResult, error)) (*query.FrameResult, error) {
	i, g, err := c.owner(ctx, label)
	if err != nil {
		return nil, err
	}
	out, err := callOwner(ctx, g, affinity(label), fn)
	if err != nil {
		return nil, err
	}
	out.Index = i
	return out, nil
}

func (c *Coordinator) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	if len(aggs) == 0 {
		aggs = api.AllAggregates
	}
	return c.frameCall(ctx, label, func(cl *api.Client) (*query.FrameResult, error) {
		return cl.Stats(ctx, label, aggs)
	})
}

func (c *Coordinator) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	return c.frameCall(ctx, label, func(cl *api.Client) (*query.FrameResult, error) {
		return cl.Region(ctx, label, offset, shape)
	})
}

// Query answers req over the whole cluster with single-store
// semantics, by one rule: a metric request that couples frames on
// different shards fetches their compressed payloads and runs whole
// here, on a query engine; everything else scatters to the owning
// shards' endpoints and gathers in global order.
func (c *Coordinator) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromError(err)
	}
	if req == nil {
		return nil, api.FromError(fmt.Errorf("%w: nil request", query.ErrBadRequest))
	}
	// Compile against the global view: validation errors surface
	// identically to a single store's, whatever shard the frames live
	// on — and the resolved selection is what the scatter routes.
	p, err := query.Compile(coordIndex{c}, req)
	if err != nil {
		return nil, api.FromError(err)
	}
	clusterQueries.Inc()
	sel := p.Frames()
	if req.Metric != nil {
		// The selection ascends and shards own contiguous ranges, so its
		// ends decide whether it spans shards.
		owner, ref := c.owners[sel[0]], -1
		if against := req.Metric.Against; against != nil {
			ref = c.labels[*against] // existence validated by Compile
		}
		if c.owners[sel[len(sel)-1]] != owner || (ref >= 0 && c.owners[ref] != owner) {
			return c.metricQuery(ctx, p, sel, ref)
		}
	}
	res, err := c.scatter.do(ctx, req, c.scatter.route(sel), p.Reduce())
	if err != nil {
		return nil, api.FromError(err)
	}
	return res, nil
}

// runPart sends a sub-request to the shard it was routed to, with
// replica failover.
func (c *Coordinator) runPart(ctx context.Context, p part, sub *query.Request) (*query.Result, error) {
	return callOwner(ctx, c.groups[p.shard], uint64(p.from), func(cl *api.Client) (*query.Result, error) {
		return cl.Query(ctx, sub)
	})
}

// metricQuery answers a metric request whose coupled frames — the
// selection sel plus the reference at global position refGlobal, −1 in
// pair mode — span shards. No single shard can see both sides, so the
// coordinator fetches every coupled frame's stored payload,
// concurrently, and runs the whole plan — the metric, and any
// aggregates, regions, points and reduction — on a query engine over
// those payloads, exactly as one store would answer it.
func (c *Coordinator) metricQuery(ctx context.Context, p *query.Plan, sel []int, refGlobal int) (*query.Result, error) {
	// One fan-out fetches the reference (when any) as its last task,
	// beside the frames, so the engine never waits on the wire.
	src := &fetched{coordIndex: coordIndex{c}, lo: sel[0], ref: refGlobal,
		frames: make([]codec.Compressed, sel[len(sel)-1]-sel[0]+1)}
	tasks := len(sel)
	if refGlobal >= 0 {
		tasks++
	}
	errs := make([]error, tasks)
	if err := tensor.ParallelForCoarseCtx(ctx, tasks, func(j int) {
		if j == len(sel) {
			src.refC, errs[j] = c.fetchCompressed(ctx, refGlobal)
		} else {
			src.frames[sel[j]-src.lo], errs[j] = c.fetchCompressed(ctx, sel[j])
		}
	}); err != nil {
		return nil, api.FromError(err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, api.FromError(err)
	}
	res, err := query.New(src, query.Options{}).Execute(ctx, p)
	if err != nil {
		return nil, api.FromError(err)
	}
	return res, nil
}

// frameSpec returns global frame i's codec spec.
func (c *Coordinator) frameSpec(i int) string {
	if spec := c.infos[i].Spec; spec != "" {
		return spec
	}
	return c.scatter.spec
}

// fetchCompressed reads global frame i's payload through the checked
// fetch and decodes it under the frame's spec. The payload buffer
// belongs to this call alone and is never written, so the decode may
// view it instead of copying.
func (c *Coordinator) fetchCompressed(ctx context.Context, i int) (codec.Compressed, error) {
	data, err := c.payload(ctx, i)
	if err != nil {
		return nil, err
	}
	clusterRemoteFrames.Inc()
	clusterRemoteBytes.Add(uint64(len(data)))
	spec := c.frameSpec(i)
	comp, err := codec.TimedDecodeView(c.coders[spec], spec, data)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "decoding frame %d payload: %v", c.infos[i].Label, err)
	}
	return comp, nil
}

// ---- health probes ---------------------------------------------------

// probeLoop probes every endpoint on the topology's interval until
// Close.
func (c *Coordinator) probeLoop(interval time.Duration) {
	defer c.probeWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.ProbeNow()
		}
	}
}

// ProbeNow probes every endpoint once, concurrently, and applies the
// outcomes to the state machine. The background prober calls it on its
// interval; tests call it directly for deterministic transitions.
func (c *Coordinator) ProbeNow() {
	var wg sync.WaitGroup
	for _, g := range c.groups {
		for _, ep := range g.endpoints {
			wg.Add(1)
			go func(g *group, ep *endpoint) {
				defer wg.Done()
				ep.beginProbe()
				if c.probeOnce(ep) {
					clusterProbes.With("ok").Inc()
					ep.markSuccess()
				} else {
					clusterProbes.With("fail").Inc()
					ep.markFailure(g.cooldown, g.downAfter)
				}
			}(g, ep)
		}
	}
	wg.Wait()
}

// probeOnce checks one endpoint's health: GET /readyz at the server
// root, falling back to /healthz for servers that predate the
// readiness route. Ready is 200; anything else — including a warming
// server's 503 — is a failure.
func (c *Coordinator) probeOnce(ep *endpoint) bool {
	base := ep.probeBase()
	status, err := c.probeGet(base + "/readyz")
	if err == nil && status == http.StatusNotFound {
		status, err = c.probeGet(base + "/healthz")
	}
	return err == nil && status == http.StatusOK
}

func (c *Coordinator) probeGet(url string) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.probeHC.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
