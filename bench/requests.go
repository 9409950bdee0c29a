package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
)

// The op classes. Per-class latencies are reported under these names
// (bench.<class>_p50_ms), so a mix-level number can be read per class.
const (
	classQuery   = "query"   // per-frame aggregates on one frame
	classRegion  = "region"  // sub-array read
	classFrame   = "frame"   // whole decompressed frame
	classPayload = "payload" // raw compressed payload stream
	classReduce  = "reduce"  // dataset-level reduction over several frames
	classMetric  = "metric"  // pairwise metric against a reference frame
	classIngest  = "ingest"  // 2-frame NDJSON ingest batch
)

var classes = []string{classQuery, classRegion, classFrame, classPayload, classReduce, classMetric, classIngest}

// request is one pre-generated operation. Everything a client needs is
// in here, so two runs of the same list send the same traffic.
type request struct {
	ID     int      `json:"id"`
	Class  string   `json:"class"`
	Label  int      `json:"label,omitempty"`  // target frame
	Glob   string   `json:"glob,omitempty"`   // reduce: label glob
	Range  []int    `json:"range,omitempty"`  // reduce: frame positions [from, to)
	Aggs   []string `json:"aggs,omitempty"`   // query aggregates or reduce kinds
	Metric string   `json:"metric,omitempty"` // mse|dot|cosine
	Ref    int      `json:"ref,omitempty"`    // metric reference label
	Offset []int    `json:"offset,omitempty"`
	Shape  []int    `json:"shape,omitempty"`
	// Pick selects, at run time, one of the labels known to be committed
	// (ingest_live reads); the list stays seed-determined while the
	// committed set grows with the run.
	Pick float64 `json:"pick,omitempty"`
}

// mixEntry is one op class and its integer weight in the mix.
type mixEntry struct {
	class  string
	weight int
	gen    func(rng *rand.Rand, r *request)
}

// genList builds n requests. The mix is stratified: every consecutive
// block of Σweights requests holds exactly weight_i requests of class i
// in a seeded order, so per-op averages (allocations, bytes) do not
// wander with the seed the way a multinomial draw would.
func genList(seed int64, n int, mix []mixEntry) []request {
	rng := rand.New(rand.NewSource(seed))
	var block []int
	for i, m := range mix {
		for k := 0; k < m.weight; k++ {
			block = append(block, i)
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, i := range block {
			if len(out) == n {
				break
			}
			r := request{ID: len(out), Class: mix[i].class}
			mix[i].gen(rng, &r)
			out = append(out, r)
		}
	}
	return out
}

// encodeList renders a list as JSON lines — the form -list prints and
// the determinism test compares byte for byte.
func encodeList(list []request) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range list {
		enc.Encode(&list[i]) // a bytes.Buffer write cannot fail
	}
	return b.Bytes()
}

// zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^s. math/rand's Zipf
// needs s > 1 and an unbounded tail; a table over n ranks is exact.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var total float64
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// randomRegion draws an axis-aligned region of 1..maxExt elements per
// axis inside shape.
func randomRegion(rng *rand.Rand, shape []int, maxExt int) (offset, ext []int) {
	offset, ext = make([]int, len(shape)), make([]int, len(shape))
	for d, s := range shape {
		m := maxExt
		if m > s {
			m = s
		}
		ext[d] = 1 + rng.Intn(m)
		offset[d] = rng.Intn(s - ext[d] + 1)
	}
	return offset, ext
}
