package series

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// failingCodec compresses like a counter but errors on one frame, to
// exercise the pipeline's mid-stream failure path.
type failingCodec struct {
	failAt int64 // frame label that fails to compress
}

var errCompress = errors.New("synthetic compression failure")

func (f failingCodec) Name() string { return "failing" }
func (f failingCodec) Spec() string { return "failing" }

func (f failingCodec) Compress(t *tensor.Tensor) (codec.Compressed, error) {
	// The first element carries the label (see the tests' frame builder).
	if int64(t.Data()[0]) == f.failAt {
		return nil, errCompress
	}
	return t, nil
}

func (f failingCodec) Decompress(c codec.Compressed) (*tensor.Tensor, error) {
	return c.(*tensor.Tensor), nil
}

func (f failingCodec) EncodedSize(c codec.Compressed) int { return 8 }

func (f failingCodec) Encode(c codec.Compressed) ([]byte, error) { return nil, errors.ErrUnsupported }
func (f failingCodec) Decode(data []byte) (codec.Compressed, error) {
	return nil, errors.ErrUnsupported
}

func labeledFrame(label int) *tensor.Tensor {
	t := tensor.New(2, 2)
	t.Data()[0] = float64(label)
	return t
}

func TestPipelineStopsCommittingAfterCodecError(t *testing.T) {
	var committed []int
	p := NewCodecPipeline(failingCodec{failAt: 5}, func(label int, c codec.Compressed) error {
		committed = append(committed, label)
		return nil
	}, 3)
	for i := 0; i < 12; i++ {
		p.Submit(i, labeledFrame(i))
	}
	err := p.Wait()
	if err == nil {
		t.Fatal("mid-stream compression failure must surface from Wait")
	}
	if !errors.Is(err, errCompress) {
		t.Errorf("error should wrap the codec error, got %v", err)
	}
	if !strings.Contains(err.Error(), "label 5") {
		t.Errorf("error should name the failed frame, got %q", err)
	}
	// Everything before the failure committed, nothing at or after it: no
	// silent gap in the middle of the series.
	if len(committed) != 5 {
		t.Fatalf("committed %v, want exactly frames 0..4", committed)
	}
	for i, label := range committed {
		if label != i {
			t.Errorf("committed[%d] = %d, want %d", i, label, i)
		}
	}
}

func TestPipelineStopsCommittingAfterSinkError(t *testing.T) {
	errSink := errors.New("synthetic sink failure")
	var committed []int
	p := NewCodecPipeline(failingCodec{failAt: -1}, func(label int, c codec.Compressed) error {
		if label == 3 {
			return errSink
		}
		committed = append(committed, label)
		return nil
	}, 2)
	for i := 0; i < 10; i++ {
		p.Submit(i, labeledFrame(i))
	}
	err := p.Wait()
	if !errors.Is(err, errSink) {
		t.Fatalf("Wait = %v, want the sink error", err)
	}
	if !strings.Contains(err.Error(), "label 3") {
		t.Errorf("error should name the failed frame, got %q", err)
	}
	if len(committed) != 3 {
		t.Fatalf("committed %v, want exactly frames 0..2", committed)
	}
}

func TestPipelineErrorPropagates(t *testing.T) {
	// An assign that fails on one label stops the commit there, like a
	// codec error: nothing at or after it reaches the sink, and Wait names
	// the frame and wraps the assign's error.
	errAssign := errors.New("synthetic assign failure")
	var committed []int
	p := NewAssignedPipeline(func(label int, _ *tensor.Tensor) (codec.Coder, error) {
		if label == 104 {
			return nil, errAssign
		}
		return failingCodec{failAt: -1}, nil
	}, func(label int, coder codec.Coder, c codec.Compressed) error {
		if coder.Spec() != "failing" {
			t.Errorf("sink got coder %q, want the assigned one", coder.Spec())
		}
		committed = append(committed, label)
		return nil
	}, 3)
	for i := 0; i < 10; i++ {
		p.Submit(100+i, labeledFrame(100+i))
	}
	err := p.Wait()
	if !errors.Is(err, errAssign) {
		t.Fatalf("Wait = %v, want the assign error", err)
	}
	if !strings.Contains(err.Error(), "frame 4") || !strings.Contains(err.Error(), "label 104") {
		t.Errorf("error should name sequence and label, got %q", err)
	}
	if len(committed) != 4 {
		t.Fatalf("committed %v, want exactly labels 100..103", committed)
	}
	for i, label := range committed {
		if label != 100+i {
			t.Errorf("committed[%d] = %d, want %d", i, label, 100+i)
		}
	}
}

func TestPipelineErrorNamesSequence(t *testing.T) {
	// Labels need not equal sequence numbers; the error reports both.
	p := NewCodecPipeline(failingCodec{failAt: 100}, func(label int, c codec.Compressed) error {
		return nil
	}, 1)
	p.Submit(100, labeledFrame(100)) // sequence 0, label 100
	err := p.Wait()
	if err == nil || !strings.Contains(err.Error(), "frame 0") || !strings.Contains(err.Error(), "label 100") {
		t.Errorf("error should carry sequence and label, got %v", err)
	}
}

func TestPipelineSubmitBackpressure(t *testing.T) {
	// With the sink blocked, the in-flight window (2×workers) must make
	// Submit block rather than buffer every compressed frame in memory.
	release := make(chan struct{})
	var submitted atomic.Int64
	p := NewCodecPipeline(failingCodec{failAt: -1}, func(label int, c codec.Compressed) error {
		<-release
		return nil
	}, 1)
	const total = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			p.Submit(i, labeledFrame(i))
			submitted.Add(1)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if n := submitted.Load(); n >= total/2 {
		t.Errorf("with a stalled sink, %d of %d frames were accepted; Submit should backpressure", n, total)
	}
	close(release)
	<-done
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineOrderPreservedUnderLoad(t *testing.T) {
	// Race-detector-friendly stress: many frames through few workers with
	// a fast sink, order must hold.
	var labels []int
	p := NewCodecPipeline(failingCodec{failAt: -1}, func(label int, c codec.Compressed) error {
		labels = append(labels, label)
		return nil
	}, 4)
	const total = 200
	for i := 0; i < total; i++ {
		p.Submit(i, labeledFrame(i))
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(labels) != total {
		t.Fatalf("committed %d frames, want %d", len(labels), total)
	}
	for i, l := range labels {
		if l != i {
			t.Fatalf("order broken at %d: %d", i, l)
		}
	}
}
