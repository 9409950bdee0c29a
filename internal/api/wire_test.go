package api_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
)

// ExampleAppendFrames pins the binary ingest body: magic "GBF", version
// 1, one frame (u32 count), label 7 (i64), 2 dimensions of 2 (u8, u32
// each), the spec "goblaz" (u16 length), then −0, the smallest
// subnormal, MaxFloat64 and 1 as raw little-endian float64 bits.
func ExampleAppendFrames() {
	body, err := api.AppendFrames(nil, []api.IngestFrame{{
		Label: 7,
		Shape: []int{2, 2},
		Spec:  "goblaz",
		Data:  []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1},
	}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%x\n", body)
	// Output:
	// 474246010100000007000000000000000202000000020000000600676f626c617a00000000000000800100000000000000ffffffffffffef7f000000000000f03f
}

// sameFrames reports whether two batches are equal to the bit: labels,
// shapes, specs, and math.Float64bits of every value (so −0 ≠ +0).
func sameFrames(a, b []api.IngestFrame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Label != y.Label || x.Spec != y.Spec || fmt.Sprint(x.Shape) != fmt.Sprint(y.Shape) || len(x.Data) != len(y.Data) {
			return false
		}
		for j := range x.Data {
			if math.Float64bits(x.Data[j]) != math.Float64bits(y.Data[j]) {
				return false
			}
		}
	}
	return true
}

func validBatch() []api.IngestFrame {
	return []api.IngestFrame{
		{Label: -3, Shape: []int{2, 3}, Data: []float64{math.Copysign(0, -1), 1.5, -2, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64}},
		{Label: 1 << 40, Shape: []int{1}, Spec: "zfp:rate=16", Data: []float64{math.Pi}},
		{Label: 9, Shape: []int{0, 4}, Spec: "zfp:rate=16"},
	}
}

func TestFramesRoundTrip(t *testing.T) {
	in := validBatch()
	body, err := api.AppendFrames([]byte("prefix"), in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, []byte("prefix")) {
		t.Fatal("AppendFrames did not append to dst")
	}
	out, err := api.ParseFrames(body[len("prefix"):])
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrames(in, out) {
		t.Fatalf("round trip changed the batch:\n in %+v\nout %+v", in, out)
	}
	if out[1].Spec != out[2].Spec {
		t.Error("spec lost")
	}
	// Zero frames is a valid body; the Ingestor answers "empty ingest batch".
	empty, _ := api.AppendFrames(nil, nil)
	if got, err := api.ParseFrames(empty); err != nil || len(got) != 0 {
		t.Errorf("empty batch = %v, %v", got, err)
	}
}

func TestAppendFramesRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame api.IngestFrame
		want  string
	}{
		{"NaN", api.IngestFrame{Label: 4, Shape: []int{2}, Data: []float64{1, math.NaN()}}, "frame 0 (label 4): value 1 is NaN"},
		{"+Inf", api.IngestFrame{Label: 4, Shape: []int{1}, Data: []float64{math.Inf(1)}}, "value 0 is +Inf"},
		{"-Inf", api.IngestFrame{Label: 4, Shape: []int{1}, Data: []float64{math.Inf(-1)}}, "value 0 is -Inf"},
		{"length", api.IngestFrame{Label: 4, Shape: []int{2, 2}, Data: []float64{1, 2, 3}}, "frame 0 (label 4): shape [2 2] needs 4 values, got 3"},
		{"overflow", api.IngestFrame{Label: 4, Shape: []int{1 << 31, 1 << 31, 1 << 31}, Data: []float64{1}}, "needs"},
		{"negative", api.IngestFrame{Label: 4, Shape: []int{-1}, Data: nil}, "frame 0 (label 4): bad shape [-1]"},
		{"extent", api.IngestFrame{Label: 4, Shape: []int{1 << 32}, Data: nil}, "bad shape"},
		{"dims", api.IngestFrame{Label: 4, Shape: make([]int, 256)}, "256 dimensions"},
		{"spec", api.IngestFrame{Label: 4, Shape: []int{1}, Data: []float64{1}, Spec: strings.Repeat("x", 1<<16)}, "spec of 65536 bytes"},
	} {
		_, err := api.AppendFrames(nil, []api.IngestFrame{tc.frame})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// corruptBodies returns named malformed variants of a valid body.
func corruptBodies(t testing.TB) map[string][]byte {
	body, err := api.AppendFrames(nil, validBatch())
	if err != nil {
		t.Fatal(err)
	}
	with := func(at int, b ...byte) []byte {
		out := bytes.Clone(body)
		copy(out[at:], b)
		return out
	}
	scalar := extentsBody()
	return map[string][]byte{
		"empty":    nil,
		"magic":    with(0, 'X'),
		"version":  with(3, 2),
		"trailing": append(bytes.Clone(body), 0),
		"cut":      body[:len(body)-1],
		"count":    with(4, 0xFF, 0xFF, 0xFF, 0x7F),
		"extents":  extentsBody(0xFFFFFFFF, 0xFFFFFFFF),
		"dims":     extentsBody(dims255()...),
		"scalar":   scalar[:len(scalar)-1], // no extents: one value, cut short
		"nan":      with(8+8+1+8+2, 0x01, 0, 0, 0, 0, 0, 0xF8, 0x7F),
	}
}

// extentsBody is a one-frame body whose header declares the given
// extents and carries eight bytes of data.
func extentsBody(ext ...uint32) []byte {
	b := append([]byte("GBF\x01"), 1, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = append(b, byte(len(ext)))
	for _, e := range ext {
		b = binary.LittleEndian.AppendUint32(b, e)
	}
	b = append(b, 0, 0)
	return append(b, make([]byte, 8)...)
}

func TestParseFramesRejects(t *testing.T) {
	for name, body := range corruptBodies(t) {
		frames, err := api.ParseFrames(body)
		if err == nil || api.CodeOf(err) != api.CodeBadRequest {
			t.Errorf("%s: ParseFrames = %d frames, %v; want a bad_request error", name, len(frames), err)
		}
	}
	body, _ := api.AppendFrames(nil, validBatch())
	for n := 0; n < len(body); n++ {
		if _, err := api.ParseFrames(body[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes parsed", n, len(body))
		}
	}
}

// parseAllocs measures the bytes ParseFrames(b) allocates: the least
// of three runs, since the fuzzing engine's own goroutines allocate
// concurrently and only ever add to the count.
func parseAllocs(b []byte) uint64 {
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for range 3 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		api.ParseFrames(b)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}

// allocBound is the most ParseFrames may allocate for a body of n
// bytes: the frame headers are the densest case, 72 B of IngestFrame
// and 8 B of shape for a 15-byte frame with one zero extent.
func allocBound(n int) uint64 { return uint64(8*n) + 4096 }

func FuzzParseFrames(f *testing.F) {
	valid, err := api.AppendFrames(nil, validBatch())
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	for _, body := range corruptBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := api.ParseFrames(b)
		if got := parseAllocs(b); got > allocBound(len(b)) {
			t.Fatalf("ParseFrames of %d bytes allocated %d B, bound %d", len(b), got, allocBound(len(b)))
		}
		if err == nil {
			again, err := api.AppendFrames(nil, frames)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("accepted body does not re-encode to itself: %v", err)
			}
		} else if api.CodeOf(err) != api.CodeBadRequest {
			t.Fatalf("ParseFrames error %v is not bad_request", err)
		}

		// The other direction: any batch AppendFrames accepts parses
		// back bit-equal. The input's bytes become the values.
		x := api.IngestFrame{Label: len(b) - 3, Shape: []int{len(b) / 8}, Data: make([]float64, len(b)/8)}
		for j := range x.Data {
			x.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		if len(b) > 0 {
			x.Spec = string(b[:len(b)%7])
		}
		body, err := api.AppendFrames(nil, []api.IngestFrame{x})
		if err != nil {
			return // a NaN or ±Inf value
		}
		back, err := api.ParseFrames(body)
		if err != nil || !sameFrames(back, []api.IngestFrame{x}) {
			t.Fatalf("ParseFrames(AppendFrames(x)) != x: %v", err)
		}
	})
}

// dims255 is the most extents a frame can declare, each 2: a product
// of 2^255 values.
func dims255() []uint32 {
	ext := make([]uint32, 255)
	for i := range ext {
		ext[i] = 2
	}
	return ext
}
