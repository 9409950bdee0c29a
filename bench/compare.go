package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// catalog is the part of BENCHMARK.json the benchmark itself reads: the
// names it must emit and the bounds -compare judges by.
type catalog struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadCatalog(path string) (*catalog, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// failedShareBound is how much failed/attempted may rise, absolutely,
// before it is a regression. failed_share is not among the catalog's
// end-to-end metrics because it is 0 on every correct run, and a
// metric that is always 0 has no relative bound.
const failedShareBound = 0.001

// verdict judges side B against side A on one metric. spread is the
// interquartile distance over the median of a side's own runs; when
// either side's spread exceeds the bound the runs cannot resolve a move
// of that size.
func verdict(a, b summary, better string, bound float64) string {
	if spreadOf(a) > bound || spreadOf(b) > bound {
		return "unresolved"
	}
	if a.Median == 0 {
		return "same"
	}
	change := (b.Median - a.Median) / a.Median
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

func spreadOf(s summary) float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// compareDocs reads result documents in a b a b ... order and prints,
// per workload and end-to-end metric, each side's median and quartiles,
// the ratio with its base, and the verdict.
func compareDocs(w io.Writer, catalogPath string, files []string) error {
	if len(files) < 2 || len(files)%2 != 0 {
		return fmt.Errorf("-compare wants pairs of files: a.json b.json [a2.json b2.json ...]")
	}
	cat, err := loadCatalog(catalogPath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	for i, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc document
		if err := json.Unmarshal(blob, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		side := sides[i%2]
		for _, res := range doc.Workloads {
			for name, m := range res.EndToEnd {
				side[key{res.Workload, name}] = append(side[key{res.Workload, name}], m.Value)
			}
			if res.Attempted > 0 {
				k := key{res.Workload, "failed_share"}
				side[k] = append(side[k], float64(res.Failed)/float64(res.Attempted))
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB/A (base A)\tbound\tverdict")
	side := func(s summary) string { return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", s.Median, s.Q1, s.Q3, s.N) }
	for _, wl := range cat.Workloads {
		for _, m := range cat.EndToEnd {
			a, b := summarize(sides[0][key{wl.Name, m.Name}]), summarize(sides[1][key{wl.Name, m.Name}])
			if a.N == 0 || b.N == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f (%.6g)\t%g\t%s\n", wl.Name, m.Name, m.Unit,
				side(a), side(b), ratio(b.Median, a.Median), a.Median, m.Bound, verdict(a, b, m.Better, m.Bound))
		}
		a, b := summarize(sides[0][key{wl.Name, "failed_share"}]), summarize(sides[1][key{wl.Name, "failed_share"}])
		if a.N == 0 || b.N == 0 {
			continue
		}
		v := "same"
		if b.Median-a.Median > failedShareBound {
			v = "worse"
		} else if a.Median-b.Median > failedShareBound {
			v = "better"
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%s\t%s\t%+.4f (absolute)\t+%g\t%s\n", wl.Name,
			side(a), side(b), b.Median-a.Median, failedShareBound, v)
	}
	return tw.Flush()
}
