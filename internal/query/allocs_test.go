package query

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/store"
)

// TestReducePerFrameAllocs pins what one more frame costs a reduction
// over an mmap'd int8 store: the frame's decode (a view of the mapping),
// its moment state and nothing the size of the selection. It reads the
// marginal count, (allocations of a 16-frame reduce − those of a 1-frame
// reduce) / 15, at GOMAXPROCS 1, so the fan-out's fixed cost cancels.
func TestReducePerFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const frames = 16
	path := filepath.Join(t.TempDir(), "frames.gbz")
	b := storeBytes(t, "goblaz:block=8x8,float=float32,index=int8", seqLabels(frames), testFrames(frames, 32, 32))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenReaderMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := New(r, Options{})
	allocs := func(n int) float64 {
		from, to := 0, n
		req := &Request{Select: Selector{From: &from, To: &to}, Reduce: []string{AggMean, AggVariance, AggL2Norm}}
		return testing.AllocsPerRun(50, func() {
			res, err := e.Run(context.Background(), req)
			if err != nil || !res.ExecutedInCompressedSpace {
				t.Fatalf("reduce over %d frames: %v (compressed %v)", n, err, res != nil && res.ExecutedInCompressedSpace)
			}
		})
	}
	one, many := allocs(1), allocs(frames)
	perFrame := (many - one) / (frames - 1)
	t.Logf("1 frame %v, %d frames %v: %.2f allocations a frame", one, frames, many, perFrame)
	if perFrame > 3.5 {
		t.Errorf("a reduction allocates %.2f objects per added frame, want ≤ 3.5", perFrame)
	}
}
