package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path"
	"strconv"
	"sync"

	"repro/internal/api"
	"repro/internal/query"
)

// frameSource is what the engine and kernel levels of the benchmark
// need from a store: *store.Reader and *shard.Dataset both provide it.
type frameSource interface {
	query.Source
	query.FrameSpeccer
	query.PayloadAppender
	query.FrameKeyer
}

// answer is what one request returned, reduced to what the checks need.
type answer struct {
	label   int                // resolved target label (ingest_live reads resolve Pick at run time)
	scalars map[string]float64 // aggregate, reduce or metric values by kind
	values  []float64          // region or whole-frame values
	payload []byte             // raw payload bytes
	// flagged is true when the answer carries an
	// executedInCompressedSpace flag, compressed is that flag.
	flagged, compressed bool
}

// digest condenses a bulk answer for the differential check, so whole
// frames need not be kept until the end of the run.
func (a *answer) digest() uint32 {
	if a.payload != nil {
		return crc32.ChecksumIEEE(a.payload)
	}
	h := crc32.NewIEEE()
	var b [8]byte
	for _, v := range a.values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum32()
}

// toQuery renders a query-class request as the engine's request model.
func toQuery(r *request, label int) *query.Request {
	q := &query.Request{Select: query.Selector{Labels: strconv.Itoa(label)}}
	switch r.Class {
	case classQuery:
		q.Aggregates = r.Aggs
	case classRegion:
		q.Region = &query.RegionRequest{Offset: r.Offset, Shape: r.Shape}
	case classMetric:
		ref := r.Ref
		q.Metric = &query.MetricRequest{Kind: r.Metric, Against: &ref}
	case classReduce:
		q.Select = query.Selector{Labels: r.Glob}
		if r.Range != nil {
			from, to := r.Range[0], r.Range[1]
			q.Select = query.Selector{From: &from, To: &to}
		}
		q.Reduce = r.Aggs
	}
	return q
}

// answerOfResult extracts the answer of a query-class request from an
// engine result.
func answerOfResult(r *request, res *query.Result) (*answer, error) {
	a := &answer{flagged: true, compressed: res.ExecutedInCompressedSpace}
	switch r.Class {
	case classReduce:
		if res.Reduced == nil {
			return nil, fmt.Errorf("reduce answer carries no reduction")
		}
		a.scalars = floats(res.Reduced.Values)
		return a, nil
	}
	if len(res.Frames) != 1 {
		return nil, fmt.Errorf("%s answer covers %d frames, want 1", r.Class, len(res.Frames))
	}
	return a, a.fillFrame(r, &res.Frames[0])
}

func (a *answer) fillFrame(r *request, fr *query.FrameResult) error {
	a.flagged, a.compressed = true, fr.ExecutedInCompressedSpace
	switch r.Class {
	case classQuery:
		a.scalars = floats(fr.Aggregates)
	case classRegion:
		if fr.Region == nil {
			return fmt.Errorf("region answer carries no region")
		}
		a.values = fr.Region.Values
	case classMetric:
		if fr.Metric == nil {
			return fmt.Errorf("metric answer carries no metric")
		}
		a.scalars = map[string]float64{r.Metric: float64(*fr.Metric)}
	}
	return nil
}

func floats(m map[string]query.Float) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

// resolveLabel is the request's target label: fixed in the list, except
// for ingest_live reads, which pick among the committed labels.
func resolveLabel(r *request, live *liveState) int {
	if live != nil && r.Class != classIngest {
		return live.pick(r.Pick)
	}
	return r.Label
}

// execBackend sends one request through the v1 contract — the way every
// closed-loop client and every api-or-higher trace level runs it. seq is
// the op's ordinal in its phase and labelBase the phase's ingest label
// range, so ingested labels never collide.
func execBackend(ctx context.Context, b api.Backend, r *request, live *liveState, labelBase, seq int) (*answer, error) {
	label := resolveLabel(r, live)
	a := &answer{label: label}
	switch r.Class {
	case classQuery:
		fr, err := b.Stats(ctx, label, r.Aggs)
		if err != nil {
			return nil, err
		}
		return a, a.fillFrame(r, fr)
	case classRegion:
		fr, err := b.Region(ctx, label, r.Offset, r.Shape)
		if err != nil {
			return nil, err
		}
		return a, a.fillFrame(r, fr)
	case classFrame:
		f, err := b.Frame(ctx, label)
		if err != nil {
			return nil, err
		}
		a.values = f.Data
		return a, nil
	case classPayload:
		p, ok := b.(api.Payloads)
		if !ok {
			return nil, fmt.Errorf("backend %T serves no payloads", b)
		}
		blob, err := p.Payload(ctx, label)
		if err != nil {
			return nil, err
		}
		a.payload = blob
		return a, nil
	case classReduce, classMetric:
		res, err := b.Query(ctx, toQuery(r, label))
		if err != nil {
			return nil, err
		}
		ra, err := answerOfResult(r, res)
		if err != nil {
			return nil, err
		}
		ra.label = label
		return ra, nil
	case classIngest:
		ing, ok := b.(api.Ingestor)
		if !ok {
			return nil, fmt.Errorf("backend %T accepts no ingest", b)
		}
		labels := []int{labelBase + 2*seq, labelBase + 2*seq + 1}
		mark := live.mark()
		res, err := ing.Ingest(ctx, ingestFrames(live.fs, labels...))
		if err != nil {
			return nil, err
		}
		if res.Accepted != len(labels) {
			return nil, fmt.Errorf("ingest accepted %d of %d frames", res.Accepted, len(labels))
		}
		live.ack(labels, mark, res.Committed)
		return a, nil
	}
	return nil, fmt.Errorf("unknown op class %q", r.Class)
}

// execReference answers a read request straight from a query engine
// over the stored bytes.
func execReference(ctx context.Context, ref *reference, r *request, label int) (*answer, error) {
	switch r.Class {
	case classFrame, classPayload:
		i, ok := ref.src.IndexOf(label)
		if !ok {
			return nil, fmt.Errorf("no frame with label %d", label)
		}
		if r.Class == classPayload {
			blob, err := ref.src.PayloadAppend(nil, i)
			return &answer{label: label, payload: blob}, err
		}
		t, err := ref.src.Decompress(i)
		if err != nil {
			return nil, err
		}
		return &answer{label: label, values: t.Data()}, nil
	}
	res, err := ref.eng.Run(ctx, toQuery(r, label))
	if err != nil {
		return nil, err
	}
	a, err := answerOfResult(r, res)
	if err != nil {
		return nil, err
	}
	a.label = label
	return a, nil
}

// ---- checking against float64 on the raw frames ----

// truthTolerance is how far an answer may sit from float64 arithmetic
// on the raw frame, in units of the answer's natural scale, before the
// op counts as failed. It is a guard against gross errors — the wrong
// op, a truncated read, a NaN: the int8 codec on a frame lifted by
// 0.1·k is itself up to 0.06 of the range off, so nothing tighter
// holds. Exactness is the differential check's job.
const truthTolerance = 0.1

// oracle computes expected answers from the raw frames.
type oracle struct {
	fs   *frameSet
	live *liveState

	mu   sync.Mutex
	dots map[[2]int]float64 // raw dot products by frame position pair
}

func newOracle(fs *frameSet, live *liveState) *oracle {
	return &oracle{fs: fs, live: live, dots: map[[2]int]float64{}}
}

// pos maps a label to its position in the raw frame set: packed frames
// are labelled by position, ingested ones cycle through the pool.
func (o *oracle) pos(label int) int {
	if o.live != nil {
		return o.live.poolIndex(label)
	}
	return label
}

func (o *oracle) dot(i, j int) float64 {
	key := [2]int{i, j}
	o.mu.Lock()
	v, ok := o.dots[key]
	o.mu.Unlock()
	if ok {
		return v
	}
	v = o.fs.raw[i].Dot(o.fs.raw[j])
	o.mu.Lock()
	o.dots[key] = v
	o.mu.Unlock()
	return v
}

// mergedTruth folds the truths of the frames a reduce request selects.
func (o *oracle) mergedTruth(r *request) truth {
	m := truth{min: math.Inf(1), max: math.Inf(-1)}
	for i, t := range o.fs.truth {
		if r.Range != nil {
			if i < r.Range[0] || i >= r.Range[1] {
				continue
			}
		} else if r.Glob != "" {
			// The engine selects with path.Match over the decimal label.
			if ok, _ := path.Match(r.Glob, strconv.Itoa(o.fs.labels[i])); !ok {
				continue
			}
		}
		m.n += t.n
		m.sum += t.sum
		m.sumSq += t.sumSq
		m.min = math.Min(m.min, t.min)
		m.max = math.Max(m.max, t.max)
	}
	return m
}

// aggTruth is the float64 value of one aggregate kind and the scale its
// error is measured in.
func aggTruth(t truth, kind string) (want, scale float64) {
	r := t.valueRange()
	switch kind {
	case query.AggMean:
		return t.mean(), r
	case query.AggVariance:
		return t.variance(), r * r
	case query.AggStdDev:
		return math.Sqrt(math.Max(t.variance(), 0)), r
	case query.AggMin:
		return t.min, r
	case query.AggMax:
		return t.max, r
	case query.AggL2Norm:
		n := math.Sqrt(t.sumSq)
		return n, n
	}
	return math.NaN(), 1
}

// check compares an answer with float64 on the raw frames and returns
// the largest error over its values, each in units of its scale.
func (o *oracle) check(r *request, a *answer) (float64, error) {
	if r.Class == classIngest {
		return 0, nil
	}
	var worst float64
	note := func(got, want, scale float64) {
		e := math.Abs(got-want) / scale
		if math.IsNaN(e) {
			e = math.Inf(1)
		}
		worst = math.Max(worst, e)
	}
	switch r.Class {
	case classQuery, classReduce:
		t := o.mergedTruth(r)
		if r.Class == classQuery {
			t = o.fs.truth[o.pos(a.label)]
		}
		if len(a.scalars) != len(r.Aggs) {
			return 0, fmt.Errorf("answer has %d values, asked for %d", len(a.scalars), len(r.Aggs))
		}
		for _, kind := range r.Aggs {
			got, ok := a.scalars[kind]
			if !ok {
				return 0, fmt.Errorf("answer lacks %q", kind)
			}
			want, scale := aggTruth(t, kind)
			note(got, want, scale)
		}
	case classMetric:
		i, j := o.pos(a.label), o.pos(r.Ref)
		ti, tj := o.fs.truth[i], o.fs.truth[j]
		dot := o.dot(i, j)
		norms := math.Sqrt(ti.sumSq * tj.sumSq)
		rng := math.Max(ti.max, tj.max) - math.Min(ti.min, tj.min)
		got := a.scalars[r.Metric]
		switch r.Metric {
		case query.MetricDot:
			note(got, dot, norms)
		case query.MetricCosine:
			note(got, dot/norms, 1)
		case query.MetricMSE:
			note(got, (ti.sumSq+tj.sumSq-2*dot)/float64(ti.n), rng*rng)
		}
	case classRegion:
		raw := o.fs.raw[o.pos(a.label)]
		want := cropRaw(raw.Data(), raw.Shape(), r.Offset, r.Shape)
		if len(a.values) != len(want) {
			return 0, fmt.Errorf("region has %d values, want %d", len(a.values), len(want))
		}
		scale := o.fs.truth[o.pos(a.label)].valueRange()
		for k, v := range a.values {
			note(v, want[k], scale)
		}
	case classFrame:
		raw := o.fs.raw[o.pos(a.label)].Data()
		if len(a.values) != len(raw) {
			return 0, fmt.Errorf("frame has %d values, want %d", len(a.values), len(raw))
		}
		scale := o.fs.truth[o.pos(a.label)].valueRange()
		for k, v := range a.values {
			note(v, raw[k], scale)
		}
	case classPayload:
		if len(a.payload) == 0 {
			return 0, fmt.Errorf("empty payload")
		}
		return 0, nil // payload bytes have no float64 truth; the differential check covers them
	}
	if worst > truthTolerance {
		return worst, fmt.Errorf("answer is %.3g of its scale away from float64 on the raw frame (limit %g)", worst, truthTolerance)
	}
	return worst, nil
}

// cropRaw copies the region [offset, offset+shape) out of a row-major
// array.
func cropRaw(data []float64, full, offset, shape []int) []float64 {
	n := 1
	for _, s := range shape {
		n *= s
	}
	out := make([]float64, 0, n)
	idx := make([]int, len(shape))
	for {
		pos := 0
		for d := range full {
			pos = pos*full[d] + offset[d] + idx[d]
		}
		out = append(out, data[pos])
		d := len(shape) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return out
		}
	}
}

// ---- differential checks ----

// approxEq is the repo's differential comparison (shard and cluster
// tests use the same form), with the tolerance as a parameter.
func approxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// sameAnswer compares a served answer with the reference's.
func sameAnswer(got *kept, want *answer, tol float64) error {
	if len(got.scalars) != len(want.scalars) {
		return fmt.Errorf("answer has %d values, reference %d", len(got.scalars), len(want.scalars))
	}
	for kind, w := range want.scalars {
		if g, ok := got.scalars[kind]; !ok || !approxEq(g, w, tol) {
			return fmt.Errorf("%s = %v, reference says %v", kind, g, w)
		}
	}
	if got.bulk && got.digest != want.digest() {
		return fmt.Errorf("bulk answer differs from the reference")
	}
	return nil
}

// kept is the part of an answer retained for the differential check.
type kept struct {
	req     *request
	label   int
	scalars map[string]float64
	bulk    bool // region, frame or payload: digest is set
	digest  uint32
}

func keep(r *request, a *answer) kept {
	k := kept{req: r, label: a.label, scalars: a.scalars}
	if a.values != nil || a.payload != nil {
		k.bulk, k.digest = true, a.digest()
	}
	return k
}
