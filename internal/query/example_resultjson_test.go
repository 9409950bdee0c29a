package query_test

import (
	"fmt"
	"math"

	"repro/internal/query"
)

// The golden bodies below are what the stats, region and query routes
// answer; the bytes are encoding/json's for the same values.

func ExampleAppendFrameResult() {
	stats := &query.FrameResult{Index: 2, Label: 12, ExecutedInCompressedSpace: true, Aggregates: map[string]query.Float{
		query.AggMean: 0.125, query.AggStdDev: 2.5e-7, query.AggMin: query.Float(math.Inf(-1)), query.AggMax: 1e21,
	}}
	fmt.Printf("%s\n", query.AppendFrameResult(nil, stats))
	// Output:
	// {"index":2,"label":12,"aggregates":{"max":1e+21,"mean":0.125,"min":"-Inf","stddev":2.5e-7},"executedInCompressedSpace":true}
}

func ExampleAppendFrameResult_region() {
	region := &query.FrameResult{Index: 0, Label: -3, Spec: "zfp:rate=32", Region: &query.RegionResult{
		Offset: []int{4, 0}, Shape: []int{2, 2}, Values: []float64{1, math.Copysign(0, -1), math.NaN(), 5e-324},
	}}
	fmt.Printf("%s\n", query.AppendFrameResult(nil, region))
	// Output:
	// {"index":0,"label":-3,"spec":"zfp:rate=32","region":{"offset":[4,0],"shape":[2,2],"values":[1,-0,"NaN",5e-324]},"executedInCompressedSpace":false}
}

func ExampleAppendResult() {
	reduce := &query.Result{
		Spec:   "goblaz:block=4x4,float=float64,index=int16",
		Frames: []query.FrameResult{{Index: 0, Label: 0, ExecutedInCompressedSpace: true}},
		Reduced: &query.ReducedResult{
			Moments: query.Moments{Frames: 1, N: 256, Sum: 32, SumSq: 1e-7, Min: query.Float(math.Inf(1)), Max: query.Float(math.Inf(-1))},
			Values:  map[string]query.Float{query.AggMean: 0.125, query.AggL2Norm: 0.0003125},
		},
		ExecutedInCompressedSpace: true,
	}
	fmt.Printf("%s\n", query.AppendResult(nil, reduce))
	// Output:
	// {"spec":"goblaz:block=4x4,float=float64,index=int16","frames":[{"index":0,"label":0,"executedInCompressedSpace":true}],"reduced":{"frames":1,"n":256,"sum":32,"sumSq":1e-7,"min":"+Inf","max":"-Inf","values":{"l2norm":0.0003125,"mean":0.125}},"executedInCompressedSpace":true}
}

func ExampleAppendResult_pair() {
	pair := &query.Result{
		Spec:  "goblaz:block=4x4,float=float64,index=int16",
		Specs: []string{"goblaz:block=4x4,float=float64,index=int16", "zfp:rate=32"},
		Frames: []query.FrameResult{
			{Index: 0, Label: 0, ExecutedInCompressedSpace: false},
			{Index: 1, Label: 1, Spec: "zfp:rate=32", ExecutedInCompressedSpace: false},
		},
		Pair: &query.PairResult{A: 0, B: 1, Kind: query.MetricPSNR, Value: query.Float(math.Inf(1))},
	}
	fmt.Printf("%s\n", query.AppendResult(nil, pair))
	// Output:
	// {"spec":"goblaz:block=4x4,float=float64,index=int16","specs":["goblaz:block=4x4,float=float64,index=int16","zfp:rate=32"],"frames":[{"index":0,"label":0,"executedInCompressedSpace":false},{"index":1,"label":1,"spec":"zfp:rate=32","executedInCompressedSpace":false}],"pair":{"a":0,"b":1,"kind":"psnr","value":"+Inf","executedInCompressedSpace":false},"executedInCompressedSpace":false}
}
