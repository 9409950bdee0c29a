package figures

import (
	"time"

	"repro/internal/codec"
	"repro/internal/data"
	"repro/internal/tensor"
)

// Fig. 2's two contenders as registry specs. Goblaz (parallel) plays
// PyBlaz; the single-threaded blaz baseline plays Blaz. Both use 8×8
// blocks, float64 values, and int8 bins ("comparable to those in Blaz").
const (
	Fig2GoblazSpec = "goblaz:block=8x8,float=float64,index=int8"
	Fig2BlazSpec   = "blaz"
)

// Fig2Row is one array size of Fig. 2: "PyBlaz vs. Blaz Operation Time" —
// compress, decompress, add, multiply on square 2-D float64 arrays.
type Fig2Row struct {
	Size int
	// Goblaz times.
	GoblazCompress, GoblazDecompress, GoblazAdd, GoblazMultiply time.Duration
	// Blaz times.
	BlazCompress, BlazDecompress, BlazAdd, BlazMultiply time.Duration
}

// mustArith constructs a codec from its registry spec and requires
// compressed-space arithmetic; figure configurations are compile-time
// constants, so failure is a programming error.
func mustArith(spec string) codec.Arith {
	cd, err := codec.Lookup(spec)
	if err != nil {
		panic(err)
	}
	ar, ok := cd.(codec.Arith)
	if !ok {
		panic("figures: codec " + spec + " does not support compressed-space arithmetic")
	}
	return ar
}

// timeCodecOps measures best-of-reps compress, decompress, add, and
// scalar-multiply times of one codec on the pair (x, y) — the four
// operations on Fig. 2's y-axis, driven codec-generically.
func timeCodecOps(cd codec.Arith, x, y *tensor.Tensor, reps int) (compress, decompress, add, mul time.Duration) {
	var ca, cb codec.Compressed
	var err error
	check := func() {
		if err != nil {
			panic(err)
		}
	}
	compress = Timing(reps, func() { ca, err = cd.Compress(x); check() })
	cb, err = cd.Compress(y)
	check()
	decompress = Timing(reps, func() { _, err = cd.Decompress(ca); check() })
	add = Timing(reps, func() { _, err = cd.Add(ca, cb); check() })
	mul = Timing(reps, func() { _, err = cd.MulScalar(ca, 1.5); check() })
	return compress, decompress, add, mul
}

// Fig2 measures every operation at each array size. reps is the
// best-of-n repetition count (the paper uses warm GPU timings; 3 is
// plenty for shape). Both backends are constructed through the codec
// registry and timed by the same codec-generic driver.
func Fig2(sizes []int, reps int) []Fig2Row {
	gob := mustArith(Fig2GoblazSpec)
	bl := mustArith(Fig2BlazSpec)
	rows := make([]Fig2Row, 0, len(sizes))
	for _, n := range sizes {
		x := data.Gradient(n, n)
		y := data.Gradient(n, n).Apply(func(v float64) float64 { return 1 - v })

		var row Fig2Row
		row.Size = n
		row.GoblazCompress, row.GoblazDecompress, row.GoblazAdd, row.GoblazMultiply =
			timeCodecOps(gob, x, y, reps)
		row.BlazCompress, row.BlazDecompress, row.BlazAdd, row.BlazMultiply =
			timeCodecOps(bl, x, y, reps)
		rows = append(rows, row)
	}
	return rows
}

// DefaultFig2Sizes is the paper's x-axis, truncated to what a CPU testbed
// sweeps in reasonable time (the paper goes to 8192 on a GPU).
var DefaultFig2Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024}
