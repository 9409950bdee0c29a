// Command bench is the repository's one pinned benchmark: five
// workloads over a fixed corpus, each run as a closed loop of two
// clients against servers in this process, every answer checked, eight
// end-to-end metrics per workload, and a separate layer-peeled traced
// run for the per-layer numbers. See README.md in this directory.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench -workload serve_mixed -trace 0   one workload, end-to-end metrics only
//	go run ./bench -compare a.json b.json           verdict per metric and workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the measured phase's length when -seconds is not
// given; BENCHMARK.json pins the same number as run_seconds.
const defaultSeconds = 15

// document is the benchmark's output: the environment and one section
// per workload.
type document struct {
	Benchmark  string            `json:"benchmark"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Workloads  []*workloadResult `json:"workloads"`
}

// resultLine is the last line of standard output, the form the driver
// reads.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// commit names the source the run was built from: the build's VCS stamp
// when there is one (`go build`), else what git says about the working
// directory (`go run` does not stamp), else "unknown" (the driver's
// checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the request lists (the corpus has its own fixed seeds)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := fs.String("trace", "both", "0: end-to-end metrics, untraced; 1: per-layer metrics, traced run; both")
	list := fs.Bool("list", false, "print the request lists as JSON lines and exit")
	out := fs.String("out", "", "write the JSON document here instead of standard output")
	traceOut := fs.String("trace-out", "", "write the traced run's spans here as JSON lines")
	compare := fs.Bool("compare", false, "compare result documents: a.json b.json [a2.json b2.json ...]")
	benchmarkJSON := fs.String("benchmark", "BENCHMARK.json", "metric catalog with the bounds -compare judges by")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		return compareDocs(os.Stdout, *benchmarkJSON, fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	selected := workloads
	if *workloadName != "all" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []*workload{w}
	}
	if *list {
		for _, w := range selected {
			fs := w.frames(fullSizes)
			os.Stdout.Write(encodeList(genList(*seed, int(float64(w.rate)**seconds), w.mix(fullSizes, fs))))
		}
		return nil
	}
	var passes []bool // traced?
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}

	// Scratch lives under the working directory, which the .gitignore
	// covers, and is gone when the run ends.
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(scratch)
		os.Remove(".bench_tmp") // only if no other run is using it
	}()
	scratch, err = filepath.Abs(scratch)
	if err != nil {
		return err
	}

	var spans *recorder
	if *traceOut != "" {
		spans = newRecorder()
	}
	doc := &document{
		Benchmark: "goblaz-bench", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: commit(), Seed: *seed, Seconds: *seconds,
	}
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		var merged *workloadResult
		for _, traced := range passes {
			res, err := runWorkload(w, runOptions{seed: *seed, seconds: *seconds, sz: fullSizes,
				scratch: scratch, trace: traced, spans: spans})
			if err != nil {
				return err
			}
			line.Attempted += res.Attempted
			line.Failed += res.Failed
			if merged == nil {
				merged = res
				continue
			}
			merged.PerLayer, merged.Shares, merged.FrameShares = res.PerLayer, res.Shares, res.FrameShares
			merged.Failed += res.Failed
			merged.Failures = append(merged.Failures, res.Failures...)
		}
		doc.Workloads = append(doc.Workloads, merged)
		report(os.Stderr, merged)
		for _, group := range []map[string]metric{merged.EndToEnd, merged.PerLayer} {
			for name, m := range group {
				if len(selected) > 1 {
					name = w.name + "." + name
				}
				line.Metrics[name] = m
			}
		}
	}
	line.Correct = line.Failed == 0

	if spans != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := spans.writeTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Printf("%s\n", blob)
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !line.Correct {
		return fmt.Errorf("%d of %d ops failed their checks", line.Failed, line.Attempted)
	}
	return nil
}

// report prints one workload's metrics by name, with units, for people.
func report(w *os.File, res *workloadResult) {
	fmt.Fprintf(w, "%s  (seed %d, %d clients, closed loop, %d ops, %d failed)\n",
		res.Workload, res.Seed, res.Clients, res.Attempted, res.Failed)
	for _, reason := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", reason)
	}
	if res.TailQ < 0.99 {
		fmt.Fprintf(w, "  note: %d ops leave fewer than %d samples beyond p99\n", res.Attempted, minTailSamples)
	}
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, group[name].Value, group[name].Unit)
		}
	}
	if len(res.Shares) > 0 {
		var parts []string
		for layer, share := range res.Shares {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", layer, 100*share))
		}
		sort.Strings(parts)
		fmt.Fprintf(w, "  self-time shares: %s\n", strings.Join(parts, ", "))
	}
}
