package main

// The tune subcommand and the shared adaptive-assignment flags behind
// `goblaz pack -auto`: trial-encode every frame under a set of
// candidate codec specs, score ratio / max-error / encode-latency into
// a weighted fit (internal/tune), and either report the chosen
// per-frame assignment (tune) or pack with it directly into a
// mixed-codec v2 store (pack -auto).
//
//	goblaz tune -shape 64,64 [-candidates "SPEC;SPEC;..."] [-max-err F]
//	            [-report out.json] f0.f64 f1.f64 ...
//	goblaz pack -shape 64,64 -auto [-candidates ...] [-max-err F] out.gbz f0.f64 ...

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/codec"
	"repro/internal/tensor"
	"repro/internal/tune"
)

// tuneFlags are the adaptive-assignment knobs, registered on both the
// tune and pack flag sets so `pack -auto` accepts exactly what tune
// does.
type tuneFlags struct {
	auto       bool
	candidates string
	maxErr     float64
	wRatio     float64
	wErr       float64
	wLat       float64
	sample     int
	report     string
}

func (tf *tuneFlags) register(fs *flag.FlagSet, forPack bool) {
	if forPack {
		fs.BoolVar(&tf.auto, "auto", false, "pick each frame's codec adaptively by trial-encoding the candidate specs")
	}
	fs.StringVar(&tf.candidates, "candidates", "", `semicolon-separated candidate codec specs (default: the pack codec plus a built-in battery)`)
	fs.Float64Var(&tf.maxErr, "max-err", 0, "disqualify candidates whose L∞ reconstruction error exceeds this budget (0 = no budget)")
	fs.Float64Var(&tf.wRatio, "w-ratio", tune.DefaultWeights.Ratio, "scoring weight of the compression-ratio term")
	fs.Float64Var(&tf.wErr, "w-err", tune.DefaultWeights.Error, "scoring weight of the reconstruction-error term")
	fs.Float64Var(&tf.wLat, "w-lat", tune.DefaultWeights.Latency, "scoring weight of the encode-latency term")
	fs.IntVar(&tf.sample, "sample", 1, "trial every k-th frame; skipped frames inherit the last trialed winner")
	fs.StringVar(&tf.report, "report", "", "write the full JSON tune report to this path")
}

// candidateSpecs resolves -candidates, defaulting to the pack codec
// plus a small built-in battery; the default spec always leads and
// duplicates (by canonical form) collapse.
func (tf *tuneFlags) candidateSpecs(defaultSpec string) []string {
	raw := []string{defaultSpec}
	if tf.candidates != "" {
		for _, s := range strings.Split(tf.candidates, ";") {
			if s = strings.TrimSpace(s); s != "" {
				raw = append(raw, s)
			}
		}
	} else {
		raw = append(raw,
			"goblaz:block=8x8,float=float32,index=int16",
			"goblaz:block=8x8,float=float64,index=int16,keep=0.25",
			"zfp:rate=16",
		)
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range raw {
		key := s
		if canon, err := codec.Canonical(s); err == nil {
			key = canon
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out
}

func (tf *tuneFlags) options(defaultSpec string) tune.Options {
	return tune.Options{
		Candidates:  tf.candidateSpecs(defaultSpec),
		MaxError:    tf.maxErr,
		Weights:     tune.Weights{Ratio: tf.wRatio, Error: tf.wErr, Latency: tf.wLat},
		SampleEvery: tf.sample,
	}
}

// runTuneReport runs the trial pass over the frame files and handles
// the -report output; both `goblaz tune` and `goblaz pack -auto` go
// through it.
func (tf *tuneFlags) run(o *options, frames []string) (*tune.Report, error) {
	labels := make([]int, len(frames))
	for i := range labels {
		labels[i] = i
	}
	coder, err := codec.Lookup(o.spec)
	if err != nil {
		return nil, err
	}
	rep, err := tune.Run(context.Background(), labels, func(i int) (*tensor.Tensor, error) {
		t, err := readTensor(frames[i], o.shape)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", frames[i], err)
		}
		return t, nil
	}, tf.options(coder.Spec()))
	if err != nil {
		return nil, err
	}
	if tf.report != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(tf.report, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// summarize prints the assignment one line per distinct spec, plus the
// assigned-vs-best-uniform comparison.
func summarizeTune(rep *tune.Report) {
	counts := map[string]int{}
	var order []string
	for _, f := range rep.Frames {
		if counts[f.Chosen] == 0 {
			order = append(order, f.Chosen)
		}
		counts[f.Chosen]++
	}
	for _, spec := range order {
		fmt.Printf("  %4d frame(s) → %s\n", counts[spec], spec)
	}
	if rep.BestUniform != "" {
		fmt.Printf("assigned %d bytes vs best uniform %d bytes (%s): %.1f%% saved\n",
			rep.AssignedBytes, rep.BestUniformBytes, rep.BestUniform, 100*rep.Savings)
	}
}

func runTune(args []string) error {
	var tf tuneFlags
	o, frames, err := parseOptions("tune", args, func(fs *flag.FlagSet) { tf.register(fs, false) })
	if err != nil {
		return err
	}
	if o.shape == nil || len(frames) == 0 {
		return fmt.Errorf("tune needs -shape and at least one frame file")
	}
	rep, err := tf.run(o, frames)
	if err != nil {
		return err
	}
	fmt.Printf("tuned %d frames over %d candidates:\n", len(rep.Frames), len(rep.Candidates))
	summarizeTune(rep)
	if tf.report != "" {
		fmt.Printf("report: %s\n", tf.report)
	}
	return nil
}
