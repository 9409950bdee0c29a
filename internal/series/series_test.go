package series

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/scalar"
	"repro/internal/tensor"
)

func newComp(t *testing.T) *core.Compressor {
	t.Helper()
	s := core.DefaultSettings(4, 4)
	s.FloatType = scalar.Float64
	c, err := core.NewCompressor(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func frame(seed int64, shift float64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(16, 16)
	for i := range t.Data() {
		t.Data()[i] = math.Sin(float64(i)/9) + shift + 0.01*rng.NormFloat64()
	}
	return t
}

func TestAppendAndAccessors(t *testing.T) {
	s := New(newComp(t))
	for i := 0; i < 3; i++ {
		if err := s.Append(frame(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Frame(2) == nil {
		t.Error("Frame(2) nil")
	}
	bytes, err := s.CompressedBytes()
	if err != nil || bytes <= 0 {
		t.Errorf("CompressedBytes = %d, %v", bytes, err)
	}
	// Compressed storage must be smaller than raw storage.
	raw := 3 * 16 * 16 * 8
	if bytes >= raw {
		t.Errorf("compressed %d ≥ raw %d", bytes, raw)
	}
}

func TestAppendShapeMismatch(t *testing.T) {
	c := newComp(t)
	s := New(c)
	if err := s.Append(tensor.New(16, 16)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(tensor.New(20, 16)); err == nil {
		t.Error("appending a different shape should fail")
	}
}

func TestDistanceMatrix(t *testing.T) {
	c := newComp(t)
	s := New(c)
	const n = 4
	for i := 0; i < n; i++ {
		if err := s.Append(frame(int64(i), float64(i)*0.5)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := s.DistanceMatrix(c.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if m.At(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) = %g", i, i, m.At(i, i))
		}
		for j := 0; j < n; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
			if i != j && m.At(i, j) <= 0 {
				t.Errorf("off-diagonal (%d,%d) = %g", i, j, m.At(i, j))
			}
		}
	}
	// Distance should grow with shift separation.
	if !(m.At(0, 3) > m.At(0, 1)) {
		t.Error("distances should grow with separation")
	}
	empty := New(c)
	if _, err := empty.DistanceMatrix(c.L2Distance); err == nil {
		t.Error("empty matrix should fail")
	}
}

func TestPipelinePreservesOrder(t *testing.T) {
	// A goblaz coder with newComp's settings: the pipeline's frames must
	// be the serial Append's, bit for bit, and commit in submission order.
	cd, err := codec.Lookup("goblaz:block=4x4,float=float64,index=int16,transform=dct")
	if err != nil {
		t.Fatal(err)
	}
	serial := New(newComp(t))
	frames := make([]*tensor.Tensor, 12)
	for i := range frames {
		frames[i] = frame(int64(i), float64(i)*0.1)
		if err := serial.Append(frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	var labels []int
	var piped []*core.CompressedArray
	p := NewCodecPipeline(cd, func(label int, c codec.Compressed) error {
		labels = append(labels, label)
		piped = append(piped, c.(*core.CompressedArray))
		return nil
	}, 4)
	for i, f := range frames {
		p.Submit(i, f)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(piped) != len(serial.frames) {
		t.Fatalf("pipeline committed %d frames, want %d", len(piped), len(serial.frames))
	}
	for i, a := range piped {
		if labels[i] != i {
			t.Fatalf("order broken: label at %d is %d", i, labels[i])
		}
		if !a.F.Equal(serial.Frame(i).F) {
			t.Fatalf("frame %d differs between pipeline and serial append", i)
		}
	}
}

func TestCodecPipelineGeneric(t *testing.T) {
	// The pipeline is codec-generic: drive it with a registry backend that
	// is not the paper's compressor and collect frames through a sink.
	cd, err := codec.Lookup("zfp:rate=32")
	if err != nil {
		t.Fatal(err)
	}
	type stored struct {
		label int
		c     codec.Compressed
	}
	var got []stored
	p := NewCodecPipeline(cd, func(label int, c codec.Compressed) error {
		got = append(got, stored{label, c})
		return nil
	}, 3)
	frames := make([]*tensor.Tensor, 9)
	for i := range frames {
		frames[i] = frame(int64(i), float64(i)*0.1)
		p.Submit(10+i, frames[i])
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("sink received %d frames, want %d", len(got), len(frames))
	}
	for i, s := range got {
		if s.label != 10+i {
			t.Fatalf("order broken: label at %d is %d", i, s.label)
		}
		back, err := cd.Decompress(s.c)
		if err != nil {
			t.Fatal(err)
		}
		if e := back.MaxAbsDiff(frames[i]); e > 1e-4 {
			t.Errorf("frame %d round trip error %g", i, e)
		}
	}
}
