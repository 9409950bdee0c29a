package tune

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

const (
	tuneGoblaz = "goblaz:block=8x8,float=float64,index=int16"
	tuneZfp    = "zfp:rate=16"
)

// mixedFrame alternates between a smooth gradient (transform codecs
// love it) and a rough high-frequency field, so no single candidate
// wins every frame.
func mixedFrame(i int) (*tensor.Tensor, error) {
	t := tensor.New(16, 16)
	d := t.Data()
	for j := range d {
		x, y := float64(j%16), float64(j/16)
		if i%2 == 0 {
			d[j] = x/16 + y/16
		} else {
			d[j] = math.Sin(x*3.7+float64(i)) * math.Cos(y*2.9) * float64(1+j%5)
		}
	}
	return t, nil
}

func runMixed(t *testing.T, opts Options) *Report {
	t.Helper()
	labels := []int{10, 11, 12, 13, 14, 15}
	rep, err := Run(context.Background(), labels, mixedFrame, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestAssignedBeatsEveryUniform(t *testing.T) {
	rep := runMixed(t, Options{Candidates: []string{tuneGoblaz, tuneZfp}})
	if rep.BestUniform == "" {
		t.Fatalf("no qualified uniform candidate: %+v", rep.Uniform)
	}
	// Default weights pick the smallest qualifying encoding per frame, so
	// the assigned total can never exceed any uniform candidate's total.
	for _, u := range rep.Uniform {
		if u.Qualified && rep.AssignedBytes > u.Bytes {
			t.Errorf("assigned total %d exceeds uniform %q total %d",
				rep.AssignedBytes, u.Spec, u.Bytes)
		}
	}
	if rep.AssignedBytes > rep.BestUniformBytes {
		t.Errorf("assigned %d > best uniform %d", rep.AssignedBytes, rep.BestUniformBytes)
	}
	if rep.Savings < 0 {
		t.Errorf("negative savings %f", rep.Savings)
	}
	for _, f := range rep.Frames {
		if !f.Sampled {
			t.Errorf("frame %d not sampled with SampleEvery unset", f.Index)
		}
		if f.Chosen == "" {
			t.Errorf("frame %d has no chosen spec", f.Index)
		}
		if len(f.Trials) != 2 {
			t.Fatalf("frame %d: %d trials, want 2", f.Index, len(f.Trials))
		}
		// The winner must be the smallest successful trial (default
		// weights score by size alone).
		var won Trial
		for _, tr := range f.Trials {
			if tr.Error != "" {
				t.Fatalf("frame %d trial %q failed: %s", f.Index, tr.Spec, tr.Error)
			}
			if tr.Spec == f.Chosen {
				won = tr
			}
			if tr.Bytes <= 0 || tr.Ratio <= 0 {
				t.Errorf("frame %d trial %q: bytes=%d ratio=%f", f.Index, tr.Spec, tr.Bytes, tr.Ratio)
			}
		}
		for _, tr := range f.Trials {
			if tr.Bytes < won.Bytes {
				t.Errorf("frame %d chose %q (%d B) over smaller %q (%d B)",
					f.Index, won.Spec, won.Bytes, tr.Spec, tr.Bytes)
			}
		}
	}
	assign := rep.Assignment()
	if len(assign) != len(rep.Frames) {
		t.Fatalf("assignment has %d labels, want %d", len(assign), len(rep.Frames))
	}
	for _, f := range rep.Frames {
		if assign[f.Label] != f.Chosen {
			t.Errorf("label %d assigned %q, frame says %q", f.Label, assign[f.Label], f.Chosen)
		}
	}
}

func TestMaxErrorForcesMixedAssignment(t *testing.T) {
	// A budget no candidate meets on some frame must fail loudly rather
	// than assign an over-budget codec. Frame index 1 is the rough field,
	// where zfp:rate=16 lands around 2e-3 L∞.
	_, err := Run(context.Background(), []int{1, 2}, mixedFrame, Options{
		Candidates: []string{tuneZfp},
		MaxError:   1e-300,
	})
	if err == nil || !strings.Contains(err.Error(), "error budget") {
		t.Fatalf("want error-budget failure, got %v", err)
	}

	// At a 1e-3 budget zfp stays legal on the smooth frames (it encodes
	// the linear ramp exactly, and smaller than this goblaz) but blows
	// the budget on the rough ones, where goblaz (~7e-5) takes over: the
	// budget is what forces a genuinely mixed assignment. The goblaz
	// candidate bins values untransformed: under the DCT the ramp has so
	// few nonzero bin indices that goblaz's stream, which stores only
	// those, is smaller than zfp's on every frame that zfp encodes legally.
	const identityGoblaz = "goblaz:block=8x8,float=float64,index=int16,transform=identity"
	rep := runMixed(t, Options{
		Candidates: []string{identityGoblaz, tuneZfp},
		MaxError:   1e-3,
	})
	chosen := map[string]int{}
	for _, f := range rep.Frames {
		chosen[f.Chosen]++
		for _, tr := range f.Trials {
			if tr.Disqualified && tr.Spec == f.Chosen {
				t.Errorf("frame %d chose disqualified spec %q", f.Index, tr.Spec)
			}
		}
	}
	if len(chosen) != 2 {
		t.Errorf("assignment not mixed: %v", chosen)
	}
	for _, u := range rep.Uniform {
		if u.Spec == tuneZfp && u.Qualified {
			t.Errorf("zfp should not qualify uniformly at a 1e-3 budget")
		}
	}
	// The only qualified uniform candidate is goblaz; the mixed
	// assignment must strictly beat it (zfp is smaller wherever legal).
	if rep.BestUniform != identityGoblaz {
		t.Fatalf("best uniform = %q, want %q", rep.BestUniform, identityGoblaz)
	}
	if rep.AssignedBytes >= rep.BestUniformBytes {
		t.Errorf("assigned %d does not beat uniform %d", rep.AssignedBytes, rep.BestUniformBytes)
	}
}

func TestSampleEveryInherits(t *testing.T) {
	rep := runMixed(t, Options{
		Candidates:  []string{tuneGoblaz, tuneZfp},
		SampleEvery: 3,
	})
	sampled := 0
	for _, f := range rep.Frames {
		if f.Sampled {
			sampled++
			continue
		}
		if len(f.Trials) != 0 {
			t.Errorf("unsampled frame %d has trials", f.Index)
		}
		// Inherited winner: the most recent sampled frame's choice.
		if want := rep.Frames[(f.Index/3)*3].Chosen; f.Chosen != want {
			t.Errorf("frame %d inherited %q, want %q", f.Index, f.Chosen, want)
		}
	}
	if sampled != 2 {
		t.Errorf("sampled %d frames, want 2", sampled)
	}
}

func TestLatencyWeightStillScores(t *testing.T) {
	// Nonzero weights must not break selection: every frame still gets a
	// qualifying winner and scores are finite.
	rep := runMixed(t, Options{
		Candidates: []string{tuneGoblaz, tuneZfp},
		Weights:    Weights{Ratio: 1, Error: 0.25, Latency: 0.1},
	})
	for _, f := range rep.Frames {
		if f.Chosen == "" {
			t.Fatalf("frame %d unassigned", f.Index)
		}
		for _, tr := range f.Trials {
			if math.IsNaN(tr.Score) || math.IsInf(tr.Score, 0) {
				t.Errorf("frame %d trial %q: score %f", f.Index, tr.Spec, tr.Score)
			}
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, []int{1}, mixedFrame, Options{}); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := Run(ctx, nil, mixedFrame, Options{Candidates: []string{tuneGoblaz}}); err == nil {
		t.Error("no frames accepted")
	}
	if _, err := Run(ctx, []int{1}, mixedFrame, Options{Candidates: []string{"nope:what"}}); err == nil {
		t.Error("unknown candidate accepted")
	}
	boom := func(i int) (*tensor.Tensor, error) { return nil, fmt.Errorf("boom %d", i) }
	if _, err := Run(ctx, []int{1, 2}, boom, Options{Candidates: []string{tuneGoblaz}}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("frame error not surfaced: %v", err)
	}
}

func TestCodersResolvesAssignment(t *testing.T) {
	rep := runMixed(t, Options{Candidates: []string{tuneGoblaz, tuneZfp}})
	assign, err := rep.Coders(tuneGoblaz)
	if err != nil {
		t.Fatalf("Coders: %v", err)
	}
	for _, f := range rep.Frames {
		coder, err := assign(f.Label, nil)
		if err != nil {
			t.Fatalf("assign(%d): %v", f.Label, err)
		}
		want := strings.SplitN(f.Chosen, ":", 2)[0]
		if coder.Name() != want {
			t.Errorf("label %d: coder %q, want family %q", f.Label, coder.Name(), want)
		}
	}
	// Unknown label falls back to the default spec.
	coder, err := assign(999999, nil)
	if err != nil || coder.Name() != "goblaz" {
		t.Errorf("fallback: coder=%v err=%v", coder, err)
	}
}
