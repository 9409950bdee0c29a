package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Executable equational axioms (§VI): the paper's future-work item of
// verifying compressed-space operations "by coming up with equational
// axioms pertaining to various operations", because "subtle flaws might
// look confusingly similar to actual data aberrations". CheckAxioms runs
// the algebra on randomized inputs and reports per-axiom outcomes; the
// test suite runs it on every supported configuration, and it can be run
// against a production configuration as a self-check.

// AxiomResult is one axiom's outcome over all trials.
type AxiomResult struct {
	// Name identifies the axiom, e.g. "negate∘negate = id".
	Name string
	// Trials is the number of randomized instances checked.
	Trials int
	// Failures counts violated instances.
	Failures int
	// WorstError is the largest violation magnitude observed (0 when the
	// axiom holds everywhere).
	WorstError float64
}

// Ok reports whether the axiom held on every trial.
func (r AxiomResult) Ok() bool { return r.Failures == 0 }

func (r AxiomResult) String() string {
	status := "ok"
	if !r.Ok() {
		status = fmt.Sprintf("FAILED %d/%d (worst %.3g)", r.Failures, r.Trials, r.WorstError)
	}
	return fmt.Sprintf("%-40s %s", r.Name, status)
}

// CheckAxioms verifies the compressed-space operation algebra on `trials`
// randomized array pairs of the given shape. All axioms are exact
// identities of the compressed representation or of real arithmetic;
// tolerances only absorb float64 roundoff (and, where documented,
// rebinning of a single Add).
func (c *Compressor) CheckAxioms(rng *rand.Rand, shape []int, trials int) ([]AxiomResult, error) {
	if trials < 1 {
		trials = 1
	}
	mk := func() (*CompressedArray, error) {
		t := tensor.New(shape...)
		for i := range t.Data() {
			t.Data()[i] = rng.NormFloat64()
		}
		return c.Compress(t)
	}

	type axiom struct {
		name string
		fn   func(a, b *CompressedArray) (float64, error) // violation magnitude
	}
	relTol := 1e-9
	axioms := []axiom{
		{"negate∘negate = id (on F)", func(a, _ *CompressedArray) (float64, error) {
			na, err := c.Negate(a)
			if err != nil {
				return 0, err
			}
			nna, err := c.Negate(na)
			if err != nil {
				return 0, err
			}
			worst := 0.0
			for i := 0; i < a.F.Len(); i++ {
				if d := math.Abs(float64(a.F.At(i) - nna.F.At(i))); d > worst {
					worst = d
				}
			}
			return worst, nil
		}},
		{"mulscalar(1) = id (on F and N)", func(a, _ *CompressedArray) (float64, error) {
			m, err := c.MulScalar(a, 1)
			if err != nil {
				return 0, err
			}
			worst := 0.0
			if !a.F.Equal(m.F) {
				worst = 1
			}
			for k := range a.N {
				if d := math.Abs(a.N[k] - m.N[k]); d > worst {
					worst = d
				}
			}
			return worst, nil
		}},
		{"dot symmetry ⟨a,b⟩ = ⟨b,a⟩", func(a, b *CompressedArray) (float64, error) {
			ab, err := c.Dot(a, b)
			if err != nil {
				return 0, err
			}
			ba, err := c.Dot(b, a)
			if err != nil {
				return 0, err
			}
			return math.Abs(ab-ba) / (1 + math.Abs(ab)), nil
		}},
		{"‖a‖² = ⟨a,a⟩", func(a, _ *CompressedArray) (float64, error) {
			n, err := c.L2Norm(a)
			if err != nil {
				return 0, err
			}
			d, err := c.Dot(a, a)
			if err != nil {
				return 0, err
			}
			return math.Abs(n*n-d) / (1 + math.Abs(d)), nil
		}},
		{"Cauchy–Schwarz |⟨a,b⟩| ≤ ‖a‖‖b‖", func(a, b *CompressedArray) (float64, error) {
			d, err := c.Dot(a, b)
			if err != nil {
				return 0, err
			}
			na, err := c.L2Norm(a)
			if err != nil {
				return 0, err
			}
			nb, err := c.L2Norm(b)
			if err != nil {
				return 0, err
			}
			excess := math.Abs(d) - na*nb
			if excess < 0 {
				excess = 0
			}
			return excess / (1 + na*nb), nil
		}},
		{"cos(a,a) = 1", func(a, _ *CompressedArray) (float64, error) {
			cs, err := c.CosineSimilarity(a, a)
			if err != nil {
				return 0, err
			}
			return math.Abs(cs - 1), nil
		}},
		{"Var(a) = Cov(a,a) ≥ 0", func(a, _ *CompressedArray) (float64, error) {
			v, err := c.Variance(a)
			if err != nil {
				return 0, err
			}
			cov, err := c.Covariance(a, a)
			if err != nil {
				return 0, err
			}
			worst := math.Abs(v - cov)
			if v < 0 {
				worst = math.Max(worst, -v)
			}
			return worst / (1 + math.Abs(v)), nil
		}},
		{"Cov symmetry Cov(a,b) = Cov(b,a)", func(a, b *CompressedArray) (float64, error) {
			ab, err := c.Covariance(a, b)
			if err != nil {
				return 0, err
			}
			ba, err := c.Covariance(b, a)
			if err != nil {
				return 0, err
			}
			return math.Abs(ab-ba) / (1 + math.Abs(ab)), nil
		}},
		{"Mean(k·a) = k·Mean(a)", func(a, _ *CompressedArray) (float64, error) {
			k := rng.NormFloat64() * 3
			m0, err := c.Mean(a)
			if err != nil {
				return 0, err
			}
			ka, err := c.MulScalar(a, k)
			if err != nil {
				return 0, err
			}
			m1, err := c.Mean(ka)
			if err != nil {
				return 0, err
			}
			// MulScalar rounds N through the float type once more; allow
			// one rounding of slack beyond float64 arithmetic.
			return math.Abs(m1-k*m0) / (1 + math.Abs(k*m0)), nil
		}},
		{"decompress(a + (−a)) = 0", func(a, _ *CompressedArray) (float64, error) {
			na, err := c.Negate(a)
			if err != nil {
				return 0, err
			}
			z, err := c.Add(a, na)
			if err != nil {
				return 0, err
			}
			dz, err := c.Decompress(z)
			if err != nil {
				return 0, err
			}
			return dz.AbsMax(), nil
		}},
		{"W(a,a) = 0 and W(a,b) = W(b,a)", func(a, b *CompressedArray) (float64, error) {
			waa, err := c.WassersteinDistance(a, a, 2)
			if err != nil {
				return 0, err
			}
			wab, err := c.WassersteinDistance(a, b, 2)
			if err != nil {
				return 0, err
			}
			wba, err := c.WassersteinDistance(b, a, 2)
			if err != nil {
				return 0, err
			}
			return math.Max(waa, math.Abs(wab-wba)), nil
		}},
		{"encode∘decode = id (on F, N)", func(a, _ *CompressedArray) (float64, error) {
			blob, err := Encode(a)
			if err != nil {
				return 0, err
			}
			back, err := Decode(blob)
			if err != nil {
				return 0, err
			}
			if !slices.Equal(a.indices(), back.indices()) {
				return 1, nil
			}
			for k := range a.N {
				if a.N[k] != back.N[k] && !(math.IsNaN(a.N[k]) && math.IsNaN(back.N[k])) {
					return 1, nil
				}
			}
			return 0, nil
		}},
	}

	// The float type adds its own rounding on ops that touch N; widen the
	// tolerance for reduced-precision configurations.
	if c.settings.FloatType.Bits() < 64 {
		relTol = math.Sqrt(c.settings.FloatType.MachineEpsilon())
	}

	results := make([]AxiomResult, len(axioms))
	for i, ax := range axioms {
		results[i].Name = ax.name
	}
	for trial := 0; trial < trials; trial++ {
		a, err := mk()
		if err != nil {
			return nil, err
		}
		b, err := mk()
		if err != nil {
			return nil, err
		}
		for i, ax := range axioms {
			viol, err := ax.fn(a, b)
			if err != nil {
				return nil, fmt.Errorf("axiom %q: %w", ax.name, err)
			}
			results[i].Trials++
			if viol > relTol {
				results[i].Failures++
				if viol > results[i].WorstError {
					results[i].WorstError = viol
				}
			}
		}
	}
	return results, nil
}
