package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a percentile for it
// to be reported: a p99 read off fewer is one or two slow requests, not
// a tail.
const minTailSamples = 10

// tailLadder lists the tail percentiles a report may name, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the "inclusive" method; quantile(0.5) of an
// even-length slice is the mean of the middle pair).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// tailSupported reports whether n samples leave at least minTailSamples
// strictly beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minTailSamples
}

// highestTail picks the highest percentile of the ladder that n samples
// support; ok is false when not even the lowest rung is supported.
func highestTail(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if tailSupported(n, q) {
			return q, true
		}
	}
	return 0, false
}

// summary is the five-number description the output carries for every
// distribution it reports.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var t float64
	for _, v := range values {
		t += v
	}
	return t / float64(len(values))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
