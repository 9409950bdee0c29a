package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

// orthonormal checks HᵀH = I for a flat s×s matrix.
func orthonormal(t *testing.T, m []float64, s int, name string) {
	t.Helper()
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			dot := 0.0
			for a := 0; a < s; a++ {
				dot += m[a*s+i] * m[a*s+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Fatalf("%s size %d: column %d·column %d = %g, want %g", name, s, i, j, dot, want)
			}
		}
	}
}

func TestKindParseAndString(t *testing.T) {
	for _, c := range []struct {
		name string
		k    Kind
	}{{"dct", DCT}, {"haar", Haar}, {"identity", Identity}, {"id", Identity}} {
		k, err := ParseKind(c.name)
		if err != nil || k != c.k {
			t.Errorf("ParseKind(%q) = %v, %v", c.name, k, err)
		}
	}
	if _, err := ParseKind("fft"); err == nil {
		t.Error("ParseKind(fft) should fail")
	}
	if DCT.String() != "dct" || Haar.String() != "haar" || Identity.String() != "identity" {
		t.Error("Kind.String")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind.String")
	}
	if Kind(9).Valid() {
		t.Error("Kind(9) should be invalid")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with invalid kind should panic")
			}
		}()
		New(Kind(9))
	}()
}

func TestDCTMatrixOrthonormal(t *testing.T) {
	tr := New(DCT)
	for _, s := range []int{1, 2, 4, 8, 16, 32, 3, 5} {
		orthonormal(t, tr.Matrix(s), s, "dct")
	}
}

func TestHaarMatrixOrthonormal(t *testing.T) {
	tr := New(Haar)
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		orthonormal(t, tr.Matrix(s), s, "haar")
	}
}

func TestHaarRequiresPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Haar of size 3 should panic")
		}
	}()
	New(Haar).Matrix(3)
}

func TestWalshHadamard(t *testing.T) {
	tr := New(WalshHadamard)
	for _, s := range []int{1, 2, 4, 8, 16} {
		orthonormal(t, tr.Matrix(s), s, "walsh-hadamard")
	}
	// First column constant (mean property) and ±1/√s entries only.
	m := tr.Matrix(8)
	inv := 1 / math.Sqrt(8.0)
	for a := 0; a < 8; a++ {
		if math.Abs(m[a*8]-inv) > eps {
			t.Errorf("H[%d][0] = %g", a, m[a*8])
		}
		for g := 0; g < 8; g++ {
			if math.Abs(math.Abs(m[a*8+g])-inv) > eps {
				t.Errorf("entry magnitude %g at (%d,%d)", m[a*8+g], a, g)
			}
		}
	}
	// Round trip.
	roundTrip1D(t, WalshHadamard, 16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WHT of size 3 should panic")
			}
		}()
		tr.Matrix(3)
	}()
	if k, err := ParseKind("wht"); err != nil || k != WalshHadamard {
		t.Errorf("ParseKind(wht) = %v, %v", k, err)
	}
	if WalshHadamard.String() != "walsh-hadamard" {
		t.Error("WHT String")
	}
}

func TestIdentityMatrix(t *testing.T) {
	m := New(Identity).Matrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m[i*3+j] != want {
				t.Fatalf("identity[%d][%d] = %g", i, j, m[i*3+j])
			}
		}
	}
}

func TestDCTMatchesPaperExample(t *testing.T) {
	// Appendix A gives H1 for block size 4. Check several entries:
	// H[0][0] = √(1/4)·cos(0), H[1][1] = √(2/4)·cos(3π/8),
	// H[2][1] = √(2/4)·cos(... row3: cos 6π/8), H[3][3] = √(2/4)·cos(21π/8).
	m := New(DCT).Matrix(4)
	cases := []struct {
		a, g int
		want float64
	}{
		{0, 0, math.Sqrt(0.25)},
		{1, 0, math.Sqrt(0.25)},
		{0, 1, math.Sqrt(0.5) * math.Cos(math.Pi/8)},
		{1, 1, math.Sqrt(0.5) * math.Cos(3*math.Pi/8)},
		{2, 1, math.Sqrt(0.5) * math.Cos(5*math.Pi/8)},
		{3, 1, math.Sqrt(0.5) * math.Cos(7*math.Pi/8)},
		{1, 2, math.Sqrt(0.5) * math.Cos(6*math.Pi/8)},
		{3, 3, math.Sqrt(0.5) * math.Cos(21*math.Pi/8)},
	}
	for _, c := range cases {
		if got := m[c.a*4+c.g]; math.Abs(got-c.want) > eps {
			t.Errorf("H[%d][%d] = %g, want %g", c.a, c.g, got, c.want)
		}
	}
}

func TestFirstBasisVectorIsConstant(t *testing.T) {
	// First coefficient = block mean × √s requires column 0 ≡ 1/√s.
	for _, k := range []Kind{DCT, Haar} {
		tr := New(k)
		for _, s := range []int{2, 4, 8, 16} {
			m := tr.Matrix(s)
			want := 1 / math.Sqrt(float64(s))
			for a := 0; a < s; a++ {
				if math.Abs(m[a*s]-want) > eps {
					t.Errorf("%v size %d: H[%d][0] = %g, want %g", k, s, a, m[a*s], want)
				}
			}
		}
	}
}

func roundTrip1D(t *testing.T, k Kind, n int) {
	t.Helper()
	tr := New(k)
	rng := rand.New(rand.NewSource(int64(n)))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), x...)
	scratch := make([]float64, n)
	tr.Plan([]int{n}).Forward(x, scratch)
	tr.Plan([]int{n}).Inverse(x, scratch)
	for i := range x {
		if math.Abs(x[i]-orig[i]) > 1e-10 {
			t.Fatalf("%v size %d: round trip error %g at %d", k, n, x[i]-orig[i], i)
		}
	}
}

func TestRoundTrip1D(t *testing.T) {
	for _, k := range []Kind{DCT, Haar, Identity} {
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			roundTrip1D(t, k, n)
		}
	}
}

func TestRoundTripND(t *testing.T) {
	shapes := [][]int{{4, 4}, {2, 8}, {4, 4, 4}, {2, 4, 8}, {2, 2, 2, 2}, {1, 8}}
	for _, k := range []Kind{DCT, Haar} {
		tr := New(k)
		for _, shape := range shapes {
			vol := 1
			for _, e := range shape {
				vol *= e
			}
			rng := rand.New(rand.NewSource(99))
			x := make([]float64, vol)
			for i := range x {
				x[i] = rng.NormFloat64() * 100
			}
			orig := append([]float64(nil), x...)
			scratch := make([]float64, vol)
			tr.Plan(shape).Forward(x, scratch)
			tr.Plan(shape).Inverse(x, scratch)
			for i := range x {
				if math.Abs(x[i]-orig[i]) > 1e-8 {
					t.Fatalf("%v shape %v: round trip error %g", k, shape, x[i]-orig[i])
				}
			}
		}
	}
}

func TestForwardPreservesDotProduct(t *testing.T) {
	// Orthonormal transforms preserve dot products — the property the
	// compressed-space dot/L2/covariance operations depend on (§IV key
	// property 2).
	shape := []int{4, 8}
	vol := 32
	rng := rand.New(rand.NewSource(5))
	for _, k := range []Kind{DCT, Haar} {
		tr := New(k)
		a := make([]float64, vol)
		b := make([]float64, vol)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		dotBefore := 0.0
		for i := range a {
			dotBefore += a[i] * b[i]
		}
		scratch := make([]float64, vol)
		tr.Plan(shape).Forward(a, scratch)
		tr.Plan(shape).Forward(b, scratch)
		dotAfter := 0.0
		for i := range a {
			dotAfter += a[i] * b[i]
		}
		if math.Abs(dotBefore-dotAfter) > 1e-10*(1+math.Abs(dotBefore)) {
			t.Errorf("%v: dot %g → %g", k, dotBefore, dotAfter)
		}
	}
}

func TestFirstCoefficientIsScaledMean(t *testing.T) {
	// §IV-A3: with block shape i, the first coefficient equals the block
	// mean scaled by c = ∏ i^(1/2) = √(∏i).
	shape := []int{4, 8}
	vol := 32
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, vol)
	sum := 0.0
	for i := range x {
		x[i] = rng.NormFloat64()
		sum += x[i]
	}
	mean := sum / float64(vol)
	for _, k := range []Kind{DCT, Haar} {
		y := append([]float64(nil), x...)
		scratch := make([]float64, vol)
		New(k).Plan(shape).Forward(y, scratch)
		want := mean * math.Sqrt(float64(vol))
		if math.Abs(y[0]-want) > 1e-10 {
			t.Errorf("%v: first coefficient %g, want %g", k, y[0], want)
		}
	}
}

func TestDCTConstantBlockEnergy(t *testing.T) {
	// A constant block has all energy in the first coefficient.
	x := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	scratch := make([]float64, 8)
	New(DCT).Plan([]int{8}).Forward(x, scratch)
	if math.Abs(x[0]-5*math.Sqrt(8)) > eps {
		t.Errorf("DC coefficient = %g, want %g", x[0], 5*math.Sqrt(8))
	}
	for i := 1; i < 8; i++ {
		if math.Abs(x[i]) > eps {
			t.Errorf("AC coefficient %d = %g, want 0", i, x[i])
		}
	}
}

func TestApplyBlockValidation(t *testing.T) {
	tr := New(DCT)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch should panic")
			}
		}()
		tr.Plan([]int{4}).Forward(make([]float64, 5), make([]float64, 8))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("small scratch should panic")
			}
		}()
		// Axis 16 has no unrolled kernel, so the plan needs 16 floats.
		tr.Plan([]int{16}).Forward(make([]float64, 16), make([]float64, 2))
	}()
}

func TestMatrixCaching(t *testing.T) {
	tr := New(DCT)
	m1 := tr.Matrix(8)
	m2 := tr.Matrix(8)
	if &m1[0] != &m2[0] {
		t.Error("Matrix should return the cached slice")
	}
}

func TestConcurrentMatrixAccess(t *testing.T) {
	tr := New(DCT)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for s := 1; s <= 16; s++ {
				tr.Matrix(s)
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// Property: Parseval — forward transform preserves the L2 norm.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 << rng.Intn(4), 1 << rng.Intn(4)}
		vol := shape[0] * shape[1]
		x := make([]float64, vol)
		normBefore := 0.0
		for i := range x {
			x[i] = rng.NormFloat64() * 10
			normBefore += x[i] * x[i]
		}
		New(DCT).Plan(shape).Forward(x, make([]float64, vol))
		normAfter := 0.0
		for _, v := range x {
			normAfter += v * v
		}
		return math.Abs(normBefore-normAfter) <= 1e-9*(1+normBefore)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: linearity — T(ax+by) = aT(x)+bT(y).
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		x := make([]float64, n)
		y := make([]float64, n)
		comb := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
			comb[i] = a*x[i] + b*y[i]
		}
		tr := New(DCT)
		scratch := make([]float64, n)
		tr.Plan([]int{n}).Forward(x, scratch)
		tr.Plan([]int{n}).Forward(y, scratch)
		tr.Plan([]int{n}).Forward(comb, scratch)
		for i := range comb {
			want := a*x[i] + b*y[i]
			if math.Abs(comb[i]-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
