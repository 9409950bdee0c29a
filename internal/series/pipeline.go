package series

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// Pipeline compresses frames concurrently while preserving append order:
// producers hand raw frames to a bounded worker pool whose goroutines run
// a codec, and a single committer hands the compressed results to a sink
// in sequence. This is the channel-pipeline idiom applied to the paper's
// checkpoint-compression use case — the simulation never blocks on
// compression as long as the pool keeps up.
//
// The pipeline is codec-generic: any backend constructible through the
// codec registry (goblaz, blaz, sz, zfp, or a future addition) can feed
// any sink, and every frame may compress under a different one.
//
// The number of frames in flight (queued, compressing, or awaiting
// in-order commit) is bounded: when a worker stalls or the sink is slow,
// Submit blocks instead of buffering every completed frame in memory.
type Pipeline struct {
	assign  func(label int, frame *tensor.Tensor) (codec.Coder, error)
	sink    func(label int, coder codec.Coder, c codec.Compressed) error
	jobs    chan job
	inFly   chan struct{} // in-flight window; bounds the reorder buffer
	wg      sync.WaitGroup
	results chan result
	done    chan struct{}
	err     error // written only by commit, read after done closes
	next    int   // sequence number to hand out
}

type job struct {
	seq   int
	label int
	frame *tensor.Tensor
}

type result struct {
	seq   int
	label int
	coder codec.Coder // the codec that compressed c
	c     codec.Compressed
	err   error
}

// NewCodecPipeline is NewAssignedPipeline with every frame assigned
// coder; sink receives only the label and the compressed frame.
func NewCodecPipeline(coder codec.Coder, sink func(label int, c codec.Compressed) error, workers int) *Pipeline {
	return NewAssignedPipeline(func(int, *tensor.Tensor) (codec.Coder, error) { return coder, nil },
		func(label int, _ codec.Coder, c codec.Compressed) error { return sink(label, c) }, workers)
}

// NewAssignedPipeline starts workers goroutines compressing frames and
// committing them to sink in submission order. assign picks a coder per
// frame (workers call it concurrently, so it must be safe for concurrent
// use — e.g. select from a fixed table by label, or from a tune report),
// and the sink receives the winning coder alongside the compressed frame
// so it can record the frame under that coder's spec (see
// store.Writer.SinkAssigned). sink is called from a single goroutine;
// after the first assignment, compression or sink error it is never
// called again. Close with Wait. A non-positive workers count uses
// GOMAXPROCS.
func NewAssignedPipeline(assign func(label int, frame *tensor.Tensor) (codec.Coder, error),
	sink func(label int, coder codec.Coder, c codec.Compressed) error, workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{
		assign:  assign,
		sink:    sink,
		jobs:    make(chan job, workers),
		inFly:   make(chan struct{}, 2*workers),
		results: make(chan result, workers),
		done:    make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				r := p.compress(j.label, j.frame)
				r.seq = j.seq
				p.results <- r
			}
		}()
	}
	go p.commit()
	return p
}

// compress runs one frame through the coder assign picks for it.
func (p *Pipeline) compress(label int, frame *tensor.Tensor) result {
	coder, err := p.assign(label, frame)
	if err != nil {
		return result{label: label, err: fmt.Errorf("assigning codec: %w", err)}
	}
	start := time.Now()
	c, err := coder.Compress(frame)
	if err == nil {
		codec.ObserveOp(coder.Spec(), "compress", frame.Len()*8, time.Since(start))
	}
	return result{label: label, coder: coder, c: c, err: err}
}

// commit hands results to the sink in sequence order. After the first
// error nothing more reaches the sink — a failed frame must not leave a
// silent gap in the middle of a committed series — and the error names
// the frame that failed.
func (p *Pipeline) commit() {
	defer close(p.done)
	pending := make(map[int]result)
	nextCommit := 0
	for r := range p.results {
		pending[r.seq] = r
		for {
			c, ok := pending[nextCommit]
			if !ok {
				break
			}
			delete(pending, nextCommit)
			nextCommit++
			<-p.inFly // frame retired: reopen the submission window
			if p.err != nil {
				continue // drain, but commit nothing past the failure
			}
			if c.err != nil {
				p.err = fmt.Errorf("series: compressing frame %d (label %d): %w", c.seq, c.label, c.err)
				continue
			}
			if err := p.sink(c.label, c.coder, c.c); err != nil {
				p.err = fmt.Errorf("series: committing frame %d (label %d): %w", c.seq, c.label, err)
			}
		}
	}
}

// Submit enqueues one frame. The frame must not be mutated afterwards.
// Submit blocks while the in-flight window (2×workers frames) is full.
// Submit must not be called concurrently with itself or after Wait.
func (p *Pipeline) Submit(label int, frame *tensor.Tensor) {
	p.inFly <- struct{}{}
	p.jobs <- job{seq: p.next, label: label, frame: frame}
	p.next++
}

// Wait drains the pipeline and returns the first error, if any.
func (p *Pipeline) Wait() error {
	close(p.jobs)
	p.wg.Wait()
	close(p.results)
	<-p.done
	return p.err
}
