package main

import (
	"bytes"
	"math"
	"regexp"
	"testing"
	"time"

	"repro/internal/query"
)

func TestPercentilePickerNeedsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 20000; n++ {
		q, ok := highestTail(n)
		if !ok {
			if n >= 40 {
				t.Fatalf("n=%d: no percentile picked, yet p75 leaves %g samples beyond", n, float64(n)*0.25)
			}
			continue
		}
		if beyond := float64(n) * (1 - q); beyond < minTailSamples {
			t.Fatalf("n=%d: picked p%g with only %g samples beyond", n, 100*q, beyond)
		}
		// The pick is the highest rung that qualifies.
		for _, higher := range tailLadder {
			if higher > q && tailSupported(n, higher) {
				t.Fatalf("n=%d: picked p%g although p%g is supported", n, 100*q, 100*higher)
			}
		}
	}
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) {
		t.Fatal("p99 must need exactly 1000 samples")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// serialSamples lays ops end to end, as one client would complete them.
func serialSamples(ms []float64) []sample {
	out := make([]sample, len(ms))
	var at time.Duration
	for i, v := range ms {
		at += time.Duration(v * float64(time.Millisecond))
		out[i] = sample{ms: v, at: at}
	}
	return out
}

func TestTimeSlicesKeepTheQuietTenth(t *testing.T) {
	// 4000 ops of 1 ms, with 60 % of the run (in three bursts) at 2 ms:
	// the kept tenth must not see the bursts.
	ms := make([]float64, 4000)
	for i := range ms {
		ms[i] = 1
		if i%1000 >= 200 && i%1000 < 800 {
			ms[i] = 2
		}
	}
	got := timeSlices(serialSamples(ms), 1)
	if got.p50 != 1 || got.p95 != 1 || math.Abs(got.throughput-1000) > 1e-6 {
		t.Fatalf("bursts leaked into the quiet slices: %+v", got)
	}
	if len(got.sliceP50) != windows {
		t.Fatalf("%d slices, want %d", len(got.sliceP50), windows)
	}

	// A latency that climbs from 1 to 2 ms: picked over the whole run the
	// quiet slices are the first ones; picked per segment they sample the
	// whole climb and the median is its middle.
	for i := range ms {
		ms[i] = 1 + float64(i)/float64(len(ms))
	}
	if whole := timeSlices(serialSamples(ms), 1); whole.p50 > 1.06 {
		t.Fatalf("whole-run pick on a climb: p50 %g, want the start of the climb", whole.p50)
	}
	if seg := timeSlices(serialSamples(ms), 5); math.Abs(seg.p50-1.45) > 0.1 {
		t.Fatalf("per-segment pick on a climb: p50 %g, want about 1.45", seg.p50)
	}

	// Lists too short for a hundred slices, down to a single op.
	for _, n := range []int{1, 39, 40, 96, 399, 401} {
		got := timeSlices(serialSamples(ms[:n]), 5)
		if got.p50 < 1 || got.p50 > 2 || math.IsInf(got.throughput, 0) || math.IsNaN(got.throughput) {
			t.Fatalf("n=%d: %+v", n, got)
		}
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Start: start, End: end}
	}
	cases := []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{"nested", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 90), sp(2, 1, 20, 50)},
			map[int]int64{0: 20, 1: 50, 2: 30}},
		{"siblings", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 30), sp(2, 0, 50, 80)},
			map[int]int64{0: 50, 1: 20, 2: 30}},
		// Two children running side by side cover their union once.
		{"overlapping", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 60), sp(2, 0, 40, 90)},
			map[int]int64{0: 20, 1: 50, 2: 50}},
		{"contained sibling", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 90), sp(2, 0, 20, 30)},
			map[int]int64{0: 20, 1: 80, 2: 10}},
		// A child that outlives its parent is clipped to it.
		{"clipped", []span{sp(0, -1, 0, 100), sp(1, 0, 80, 150)},
			map[int]int64{0: 80, 1: 70}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: span %d self time %d, want %d", c.name, id, got[id], want)
			}
		}
	}
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		fs := w.frames(smokeSizes)
		list := func(seed int64) []byte { return encodeList(genList(seed, 500, w.mix(smokeSizes, fs))) }
		a, b, c := list(7), list(7), list(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different lists", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", w.name)
		}
	}
}

func TestMixIsStratified(t *testing.T) {
	w := workloadByName("serve_mixed")
	mix := w.mix(smokeSizes, w.frames(smokeSizes))
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	list := genList(3, 10*total, mix)
	for block := 0; block < 10; block++ {
		counts := map[string]int{}
		for _, r := range list[block*total : (block+1)*total] {
			counts[r.Class]++
		}
		for _, m := range mix {
			if counts[m.class] != m.weight {
				t.Fatalf("block %d holds %d %s requests, want %d", block, counts[m.class], m.class, m.weight)
			}
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	fs := genGrid(smokeSizes)
	orc := newOracle(fs, nil)
	r := &request{Class: classQuery, Label: 2, Aggs: []string{query.AggMean}}
	right := &answer{label: 2, scalars: map[string]float64{query.AggMean: fs.truth[2].mean()}}
	if _, err := orc.check(r, right); err != nil {
		t.Fatalf("exact mean rejected: %v", err)
	}
	twoFramesOff := &answer{label: 2, scalars: map[string]float64{query.AggMean: fs.truth[4].mean()}}
	if _, err := orc.check(r, twoFramesOff); err == nil {
		t.Fatal("the mean of another frame passed the check")
	}
	missing := &answer{label: 2, scalars: map[string]float64{}}
	if _, err := orc.check(r, missing); err == nil {
		t.Fatal("an answer without the aggregate passed the check")
	}
	if err := sameAnswer(&kept{scalars: map[string]float64{"mean": 1}}, &answer{scalars: map[string]float64{"mean": 1 + 1e-6}}, 1e-9); err == nil {
		t.Fatal("a 1e-6 difference passed the 1e-9 differential check")
	}
}

func TestVerdict(t *testing.T) {
	s := func(vals ...float64) summary { return summarize(vals) }
	cases := []struct {
		a, b   summary
		better string
		want   string
	}{
		{s(100, 101, 102), s(100, 101, 103), "higher", "same"},
		{s(100, 101, 102), s(80, 81, 82), "higher", "worse"},
		{s(100, 101, 102), s(80, 81, 82), "lower", "better"},
		{s(100, 101, 102), s(120, 121, 122), "lower", "worse"},
		{s(60, 100, 140), s(100, 101, 102), "lower", "unresolved"},
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.07); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogMatchesSmokeRun runs all five workloads at 1/50 scale on
// small frames, both passes, with every answer check on, and holds the
// catalog in BENCHMARK.json against what the runs emit.
func TestCatalogMatchesSmokeRun(t *testing.T) {
	cat, err := loadCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if cat.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the default -seconds %d", cat.RunSeconds, defaultSeconds)
	}
	if len(cat.Workloads) != len(workloads) {
		t.Fatalf("catalog lists %d workloads, the benchmark has %d", len(cat.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range cat.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("catalog workload %d is %q, the benchmark's is %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range cat.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range cat.PerLayer {
		name(m.Name)
	}

	scratch := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, runOptions{seed: 11, seconds: defaultSeconds, sz: smokeSizes, scale: 1.0 / 50,
				scratch: scratch, trace: traced})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d ops failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if traced {
				for _, m := range cat.PerLayer {
					if got, ok := res.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s: per-layer metric %s (%s) not emitted, got %+v", w.name, m.Name, m.Unit, got)
					}
				}
				if len(res.PerLayer) != len(cat.PerLayer) {
					t.Errorf("%s: run emits %d per-layer metrics, catalog lists %d", w.name, len(res.PerLayer), len(cat.PerLayer))
				}
				continue
			}
			for _, m := range cat.EndToEnd {
				got, ok := res.EndToEnd[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: end-to-end metric %s (%s) not emitted, got %+v", w.name, m.Name, m.Unit, got)
				}
				if got.Value <= 0 {
					t.Errorf("%s: %s = %g, end-to-end metrics must never be 0", w.name, m.Name, got.Value)
				}
			}
			if len(res.EndToEnd) != len(cat.EndToEnd) {
				t.Errorf("%s: run emits %d end-to-end metrics, catalog lists %d", w.name, len(res.EndToEnd), len(cat.EndToEnd))
			}
		}
	}
}
