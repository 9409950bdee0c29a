package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(3, 4, 5)
	if x.Dims() != 3 || x.Len() != 60 {
		t.Fatalf("Dims=%d Len=%d", x.Dims(), x.Len())
	}
	if !EqualShape(x.Shape(), []int{3, 4, 5}) {
		t.Fatalf("Shape = %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(0, 0) != 1 || x.At(0, 2) != 3 || x.At(1, 0) != 4 || x.At(1, 2) != 6 {
		t.Fatalf("row-major layout broken: %v", x.Data())
	}
	x.Set(42, 1, 1)
	if d[4] != 42 {
		t.Fatal("FromSlice must share the backing slice")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FromSlice with wrong volume should panic")
			}
		}()
		FromSlice(d, 2, 2)
	}()
}

func TestAtSetOffsetBounds(t *testing.T) {
	x := New(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range index should panic")
			}
		}()
		x.At(2, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong-arity index should panic")
			}
		}()
		x.At(1)
	}()
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestFillAndApply(t *testing.T) {
	x := New(2, 2).Fill(3)
	if x.Sum() != 12 {
		t.Fatalf("Fill: sum = %g", x.Sum())
	}
	x.Apply(func(v float64) float64 { return v * 2 })
	if x.Sum() != 24 {
		t.Fatalf("Apply: sum = %g", x.Sum())
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := a.Add(b).Data(); got[3] != 44 {
		t.Errorf("Add: %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 9 {
		t.Errorf("Sub: %v", got)
	}
	if got := a.Neg().Data(); got[1] != -2 {
		t.Errorf("Neg: %v", got)
	}
	if got := a.Scale(3).Data(); got[3] != 12 {
		t.Errorf("Scale: %v", got)
	}
	if got := a.AddScalar(1).Data(); got[0] != 2 {
		t.Errorf("AddScalar: %v", got)
	}
	if got := a.Map(math.Sqrt).Data(); got[3] != 2 {
		t.Errorf("Map: %v", got)
	}
}

func TestElementwiseShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(4)
	for name, f := range map[string]func(){
		"Add":        func() { a.Add(b) },
		"Dot":        func() { a.Dot(b) },
		"MaxAbsDiff": func() { a.MaxAbsDiff(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched shapes should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 1, 4, -1, 5, -9}, 6)
	if x.Sum() != -3 {
		t.Errorf("Sum = %g", x.Sum())
	}
	if x.Mean() != -0.5 {
		t.Errorf("Mean = %g", x.Mean())
	}
	if x.Min() != -9 || x.Max() != 5 || x.AbsMax() != 9 {
		t.Errorf("Min/Max/AbsMax = %g/%g/%g", x.Min(), x.Max(), x.AbsMax())
	}
	y := FromSlice([]float64{1, 1, 1, 1, 1, 1}, 6)
	if x.Dot(y) != -3 {
		t.Errorf("Dot = %g", x.Dot(y))
	}
	if z := FromSlice([]float64{3, 4}, 2); z.Norm2() != 5 {
		t.Errorf("Norm2 = %g", z.Norm2())
	}
}

func TestErrorMetrics(t *testing.T) {
	a := FromSlice([]float64{0, 0, 0, 0}, 4)
	b := FromSlice([]float64{1, -2, 3, 0}, 4)
	if a.MaxAbsDiff(b) != 3 {
		t.Errorf("MaxAbsDiff = %g", a.MaxAbsDiff(b))
	}
	if want := math.Sqrt(14.0 / 4.0); math.Abs(a.RMSE(b)-want) > 1e-15 {
		t.Errorf("RMSE = %g, want %g", a.RMSE(b), want)
	}
}

func TestPadCrop(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 3, 4)
	c := x.CropTo([]int{2, 3})
	if !EqualShape(c.Shape(), []int{2, 3}) {
		t.Fatalf("cropped shape %v", c.Shape())
	}
	if c.MaxAbsDiff(FromSlice([]float64{1, 2, 3, 5, 6, 7}, 2, 3)) != 0 {
		t.Fatal("CropTo content wrong")
	}
	// Identity crop returns a copy, not the same tensor.
	q := x.CropTo([]int{3, 4})
	q.Set(99, 0, 0)
	if x.At(0, 0) == 99 {
		t.Fatal("CropTo to same shape must copy")
	}
}

func TestPadCropPanics(t *testing.T) {
	x := New(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CropTo larger should panic")
			}
		}()
		x.CropTo([]int{2, 4})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CropTo wrong dims should panic")
			}
		}()
		x.CropTo([]int{2, 3, 1})
	}()
}

func TestShapeHelpers(t *testing.T) {
	if Prod([]int{3, 4, 5}) != 60 {
		t.Error("Prod")
	}
	if got := CeilDiv([]int{5, 8}, []int{4, 4}); !EqualShape(got, []int{2, 2}) {
		t.Errorf("CeilDiv = %v", got)
	}
	if EqualShape([]int{1, 2}, []int{1, 2, 3}) || EqualShape([]int{1, 2}, []int{2, 1}) {
		t.Error("EqualShape false positives")
	}
}

func TestNextIndex(t *testing.T) {
	shape := []int{2, 3}
	idx := []int{0, 0}
	var seen [][2]int
	for {
		seen = append(seen, [2]int{idx[0], idx[1]})
		if !NextIndex(idx, shape) {
			break
		}
	}
	if len(seen) != 6 {
		t.Fatalf("visited %d indices, want 6", len(seen))
	}
	if seen[1] != [2]int{0, 1} || seen[3] != [2]int{1, 0} {
		t.Fatalf("row-major order broken: %v", seen)
	}
}

func TestValidBlockShape(t *testing.T) {
	if !ValidBlockShape([]int{4, 8, 16}) {
		t.Error("powers of two should be valid")
	}
	if ValidBlockShape([]int{4, 6}) {
		t.Error("6 is not a power of two")
	}
	if ValidBlockShape([]int{0}) || ValidBlockShape(nil) {
		t.Error("degenerate shapes should be invalid")
	}
	if !ValidBlockShape([]int{1}) {
		t.Error("1 is a power of two")
	}
}

func TestBlockUnblockRoundTripExact(t *testing.T) {
	// Blocking must be exactly invertible (the only exactly invertible
	// compression step per §III-A).
	rng := rand.New(rand.NewSource(1))
	shapes := [][]int{
		{8, 8}, {5, 7}, {16}, {3, 224, 6}, {4, 4, 4}, {1, 9}, {13, 2, 5},
	}
	blockShapes := [][]int{
		{4, 4}, {4, 4}, {8}, {4, 4, 4}, {2, 2, 2}, {2, 4}, {8, 2, 4},
	}
	for i, s := range shapes {
		x := New(s...)
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64()
		}
		b := BlockTensor(x, blockShapes[i])
		back := b.Unblock()
		if !back.SameShape(x) || back.MaxAbsDiff(x) != 0 {
			t.Errorf("shape %v block %v: round trip failed", s, blockShapes[i])
		}
	}
}

func TestBlockLayout(t *testing.T) {
	// 4×4 array with 2×2 blocks: block 0 must be the top-left 2×2 quadrant.
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 4, 4)
	b := BlockTensor(x, []int{2, 2})
	if b.NumBlocks() != 4 || b.BlockVol() != 4 {
		t.Fatalf("NumBlocks=%d BlockVol=%d", b.NumBlocks(), b.BlockVol())
	}
	want0 := []float64{1, 2, 5, 6}
	for i, v := range b.Block(0) {
		if v != want0[i] {
			t.Fatalf("block 0 = %v, want %v", b.Block(0), want0)
		}
	}
	want3 := []float64{11, 12, 15, 16}
	for i, v := range b.Block(3) {
		if v != want3[i] {
			t.Fatalf("block 3 = %v, want %v", b.Block(3), want3)
		}
	}
}

func TestBlockPadding(t *testing.T) {
	// 3-long vector with 4-long blocks: one block, last element zero-padded.
	x := FromSlice([]float64{1, 2, 3}, 3)
	b := BlockTensor(x, []int{4})
	if b.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d", b.NumBlocks())
	}
	got := b.Block(0)
	want := []float64{1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("padded block = %v, want %v", got, want)
		}
	}
}

func TestBlockShapeMismatchPanics(t *testing.T) {
	x := New(4, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("block dims mismatch should panic")
			}
		}()
		BlockTensor(x, []int{4})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive block extent should panic")
			}
		}()
		BlockTensor(x, []int{4, 0})
	}()
}

func TestBlockReshapeExample(t *testing.T) {
	// Paper §III-A(b): input (3,224,224), blocks (4,4,4) → reshaped
	// (1,56,56,4,4,4): 1·56·56 blocks of 4·4·4 elements.
	x := New(3, 224, 224)
	b := BlockTensor(x, []int{4, 4, 4})
	if !EqualShape(b.Blocks, []int{1, 56, 56}) {
		t.Fatalf("Blocks = %v, want [1 56 56]", b.Blocks)
	}
	if b.BlockVol() != 64 {
		t.Fatalf("BlockVol = %d", b.BlockVol())
	}
}

func TestParallelForCoversRange(t *testing.T) {
	// Every index once, in min(n, GOMAXPROCS) contiguous chunks of
	// ceil(n/workers) — the layout zfp's per-chunk streams depend on —
	// and one chunk below the serial cutoff.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 10, 255, 256, 257, 1000, 4096} {
			seen := make([]int32, n)
			var chunks atomic.Int32
			ParallelFor(n, func(start, end int) {
				chunks.Add(1)
				if want := (n + procs - 1) / procs; n >= 256 && end-start != want && end != n {
					t.Errorf("procs=%d n=%d: chunk [%d,%d), want length %d", procs, n, start, end, want)
				}
				for i := start; i < end; i++ {
					seen[i]++
				}
			})
			want := min(n, 1)
			if n >= 256 {
				want = min(n, procs) // every n here splits into exactly that many
			}
			if got := int(chunks.Load()); got != want {
				t.Errorf("procs=%d n=%d: %d chunks, want %d", procs, n, got, want)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, c)
				}
			}
		}
	}
}

// Property: block/unblock round trip is the identity for arbitrary shapes.
func TestBlockRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(3)
		shape := make([]int, dims)
		block := make([]int, dims)
		for d := range shape {
			shape[d] = 1 + r.Intn(10)
			block[d] = 1 << r.Intn(3)
		}
		x := New(shape...)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		return BlockTensor(x, block).Unblock().MaxAbsDiff(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and Norm2² = Dot(x,x).
func TestDotProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.Data()[i] = r.NormFloat64()
			b.Data()[i] = r.NormFloat64()
		}
		if a.Dot(b) != b.Dot(a) {
			return false
		}
		return math.Abs(a.Norm2()*a.Norm2()-a.Dot(a)) <= 1e-9*(1+math.Abs(a.Dot(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
