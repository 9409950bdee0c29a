package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/scalar"
	"repro/internal/sim/shallowwater"
	"repro/internal/tensor"
)

// The v2 → v3 differential: every frame is encoded both as v2 (every
// index stored, encodeV2) and as v3 (masked blocks where smaller, Encode),
// each stream decoded by Decode and by DecodeView, and every operation on
// the v3 arrays must answer what it answers on the v2 arrays, to the bit.

// diffFrame is one frame of the differential and the partner that the
// pair operations take with it.
type diffFrame struct {
	name           string
	frame, partner *tensor.Tensor
}

func v3DiffFrames(t *testing.T) []diffFrame {
	t.Helper()
	g2, g3 := data.Gradient(64, 48), data.Gradient(16, 16, 16)
	fission := data.FissionSeries(1, 16, 16, 16)
	sim, err := shallowwater.New(shallowwater.DefaultConfig(scalar.Float64))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5)
	early := sim.Height()
	sim.Run(20)
	late := sim.Height()
	rng := rand.New(rand.NewSource(41))
	noise := tensor.New(64, 48)
	for i := range noise.Data() {
		noise.Data()[i] = rng.NormFloat64()
	}
	special := func(x *tensor.Tensor) *tensor.Tensor {
		y := x.Clone()
		d := y.Data()
		d[len(d)/3], d[len(d)/2], d[len(d)-1] = math.NaN(), math.Inf(1), math.Inf(-1)
		return y
	}
	return []diffFrame{
		{"gradient/2-D", g2, noise},
		{"gradient/3-D", g3, fission[6]},
		{"fission/686", fission[5], g3},
		{"fission/692", fission[10], fission[11]},
		{"shallowwater", late, early},
		{"noise", noise, g2},
		{"nonfinite/2-D", special(g2), g2},
		{"nonfinite/3-D", special(g3), special(fission[5])},
	}
}

// answer is one operation's result: the bits of every value, or its error.
type answer struct {
	op   string
	bits []uint64
	err  string
}

func answerOf(op string, err error, vals ...float64) answer {
	a := answer{op: op}
	if err != nil {
		a.err = err.Error()
		return a
	}
	for _, v := range vals {
		a.bits = append(a.bits, math.Float64bits(v))
	}
	return a
}

func tensorAnswer(op string, x *tensor.Tensor, err error) answer {
	if err != nil {
		return answerOf(op, err)
	}
	return answerOf(op, nil, x.Data()...)
}

// v3Answers runs every operation the differential compares on (a, b).
func v3Answers(c *Compressor, a, b *CompressedArray) []answer {
	var out []answer
	n, sum, sumSq, err := c.Moments(a)
	out = append(out, answerOf("Moments", err, float64(n), sum, sumSq))
	v, err := c.Dot(a, b)
	out = append(out, answerOf("Dot", err, v))
	v, err = c.MSE(a, b)
	out = append(out, answerOf("MSE", err, v))
	v, err = c.CosineSimilarity(a, b)
	out = append(out, answerOf("CosineSimilarity", err, v))
	v, err = c.Covariance(a, b)
	out = append(out, answerOf("Covariance", err, v))
	lo, hi, err := c.Extrema(a)
	out = append(out, answerOf("Extrema", err, lo, hi))
	m, err := c.BlockMeans(a)
	out = append(out, tensorAnswer("BlockMeans", m, err))
	v, err = c.StructuralSimilarity(a, b, DefaultSSIMOptions())
	out = append(out, answerOf("StructuralSimilarity", err, v))
	x, err := c.Decompress(a)
	out = append(out, tensorAnswer("Decompress", x, err))
	// A region that starts inside the first block on every axis and runs
	// into the next ones.
	offset, shape := make([]int, len(a.Shape)), make([]int, len(a.Shape))
	for i, e := range a.Shape {
		offset[i], shape[i] = min(3, e-1), min(11, e-min(3, e-1))
	}
	x, err = c.DecompressRegion(a, offset, shape)
	out = append(out, tensorAnswer("DecompressRegion", x, err))
	for _, arith := range []struct {
		op string
		fn func() (*CompressedArray, error)
	}{
		{"Add", func() (*CompressedArray, error) { return c.Add(a, b) }},
		{"Negate", func() (*CompressedArray, error) { return c.Negate(a) }},
		{"MulScalar", func() (*CompressedArray, error) { return c.MulScalar(a, -1.5) }},
	} {
		r, err := arith.fn()
		if err == nil {
			x, err = c.Decompress(r)
		}
		out = append(out, tensorAnswer(arith.op, x, err))
	}
	return out
}

// sameAnswers fails the test at the first answer that differs. As in
// the nonzero kernels' differential (sameKernelBits), any NaN matches any
// NaN: its sign and payload follow operand order, which the compiler
// picks, and picks differently under -race.
func sameAnswers(t *testing.T, what string, got, want []answer) {
	t.Helper()
	isNaN := func(b uint64) bool { return math.IsNaN(math.Float64frombits(b)) }
	for i, w := range want {
		g := got[i]
		if g.err != w.err || len(g.bits) != len(w.bits) {
			t.Fatalf("%s: %s = %d values, error %q; v2 gives %d values, error %q", what, w.op, len(g.bits), g.err, len(w.bits), w.err)
		}
		for j := range w.bits {
			if g.bits[j] != w.bits[j] && !(isNaN(g.bits[j]) && isNaN(w.bits[j])) {
				t.Fatalf("%s: %s value %d = %v, v2 gives %v", what, w.op, j,
					math.Float64frombits(g.bits[j]), math.Float64frombits(w.bits[j]))
			}
		}
	}
}

// decodeBoth decodes a's v2 and v3 streams with d.
func decodeBoth(t *testing.T, decode func([]byte) (*CompressedArray, error), a *CompressedArray) (v2, v3 *CompressedArray) {
	t.Helper()
	v2, err := decode(encodeV2(t, a))
	if err != nil {
		t.Fatalf("decoding v2: %v", err)
	}
	stream, err := encodeWith(a, forceV3)
	if err != nil {
		t.Fatal(err)
	}
	v3, err = decode(stream)
	if err != nil {
		t.Fatalf("decoding v3: %v", err)
	}
	return v2, v3
}

func TestStreamV3MatchesV2(t *testing.T) {
	frames := v3DiffFrames(t)
	masked := 0
	for it := scalar.Int8; it <= scalar.Int64; it++ {
		for _, keep := range []float64{1, 0.5} {
			for _, f := range frames {
				bs := []int{8, 8}
				if f.frame.Dims() == 3 {
					bs = []int{4, 4, 4}
				}
				s := DefaultSettings(bs...)
				s.IndexType = it
				if keep < 1 {
					mask, err := KeepLowFrequency(bs, keep)
					if err != nil {
						t.Fatal(err)
					}
					s.Mask = mask
				}
				c := mustCompressor(t, s)
				x, y := compress(t, c, f.frame), compress(t, c, f.partner)
				for _, d := range decoders {
					name := fmt.Sprintf("%s/%v/keep=%g/%s", f.name, it, keep, d.name)
					x2, x3 := decodeBoth(t, d.decode, x)
					y2, y3 := decodeBoth(t, d.decode, y)
					if x3.occ != nil {
						masked++
					}
					want := v3Answers(c, x2, y2)
					sameAnswers(t, name, v3Answers(c, x3, y3), want)
					// A masked block beside a dense one walks both whole.
					sameAnswers(t, name+"/v3 with v2", v3Answers(c, x3, y2), want)
					sameAnswers(t, name+"/v2 with v3", v3Answers(c, x2, y3), want)
				}
			}
		}
	}
	if masked == 0 {
		t.Fatal("no v3 stream held a masked block")
	}
	t.Run("masked N overflows under MulScalar", func(t *testing.T) {
		s := DefaultSettings(8, 8)
		s.FloatType = scalar.Float64
		c := mustCompressor(t, s)
		x := compress(t, c, data.Gradient(64, 48).Map(func(v float64) float64 { return v*1e3 - 300 }))
		y := compress(t, c, frames[5].frame)
		x2, x3 := decodeBoth(t, Decode, x)
		if x3.occ == nil {
			t.Fatal("the v3 stream holds no masked block")
		}
		// N_k ≥ 1 overflows to +Inf: a masked block's zeros then recover
		// NaN and must be summed.
		m2, err := c.MulScalar(x2, math.MaxFloat64)
		if err != nil {
			t.Fatal(err)
		}
		m3, err := c.MulScalar(x3, math.MaxFloat64)
		if err != nil {
			t.Fatal(err)
		}
		overflowed := 0
		cur := c.cursor(m3)
		for _, n := range m3.N {
			if cur.next().at >= 0 && math.IsInf(n, 1) {
				overflowed++
			}
		}
		if overflowed == 0 {
			t.Fatal("no masked block's N overflowed")
		}
		sameAnswers(t, "MulScalar(MaxFloat64)", v3Answers(c, m3, y), v3Answers(c, m2, y))
		sameAnswers(t, "MulScalar(MaxFloat64) as partner", v3Answers(c, y, m3), v3Answers(c, y, m2))
	})
	t.Run("corpus sizes", func(t *testing.T) { v3CorpusSizes(t) })
}

// v3CorpusSizes logs the stored size of the benchmark corpus's goblaz
// frames as v2, as v3, and as Encode writes them — v4 where shorter
// (go test -v -run 'TestStreamV3MatchesV2/corpus') — and checks the bound
// v3 keeps against v2.
func v3CorpusSizes(t *testing.T) {
	var table strings.Builder
	fmt.Fprintf(&table, "%-28s %-22s %10s %10s %10s %7s %7s\n", "set (workload)", "spec", "v2 bytes", "v3 bytes", "stored", "v3/v2", "st./v3")
	for _, set := range corpusFrames() {
		c := mustCompressor(t, set.s)
		v2, v3, stored := 0, 0, 0
		for _, x := range set.frames {
			a := compress(t, c, x)
			s3, err := encodeWith(a, forceV3)
			if err != nil {
				t.Fatal(err)
			}
			n2, n3 := len(encodeV2(t, a)), len(s3)
			size, err := CompressedSizeBits(a.Settings, a.Shape)
			if err != nil {
				t.Fatal(err)
			}
			if limit := int((size+7)/8) + (a.NumBlocks()+7)/8 + 2; n3 > limit {
				t.Errorf("%s: v3 %d bytes, over the bound %d", set.name, n3, limit)
			}
			v2 += n2
			v3 += n3
			stored += len(mustEncode(t, a))
		}
		spec := fmt.Sprintf("%v %v %v", set.s.BlockShape, set.s.FloatType, set.s.IndexType)
		fmt.Fprintf(&table, "%-28s %-22s %10d %10d %10d %7.3f %7.3f\n", set.name, spec, v2, v3, stored,
			float64(v3)/float64(v2), float64(stored)/float64(v3))
	}
	t.Logf("goblaz payloads of the benchmark corpus:\n%s", table.String())
}
