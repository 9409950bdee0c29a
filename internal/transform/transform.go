// Package transform implements the orthonormal block transforms used by
// the compressor: the type-II discrete cosine transform (the paper's
// default), the Haar wavelet transform, and the identity transform.
//
// A transform of size s is represented by an s×s orthonormal matrix H with
// H[α][γ] = element α of basis function γ; the forward transform of a line
// x is c[γ] = Σ_α x[α]·H[α][γ] and, because H is orthonormal, the inverse
// is x[α] = Σ_γ c[γ]·H[α][γ]ᵀ. N-dimensional blocks are transformed
// separably, one axis at a time (Einstein-summation form of §III-A(c)).
//
// Every transform here has a constant first basis vector 1/√s, so the
// first coefficient of a block is the block mean scaled by √(∏i) — the
// property the compressed-space mean, covariance and Wasserstein
// operations rely on.
//
// The per-block loops of the compressors do not go through the Transform's
// locked matrix cache: they resolve it once into a Plan for their block
// shape (plan.go) — the per-axis matrices in the orientation each direction
// reads with unit stride, and axis kernels unrolled for lengths 4 and 8 that
// keep the summation order of the plain loop, so results are bit-identical.
// Its InverseOccupied inverts a block that is +0 outside a set of marked
// positions from the marked lines alone, to the same bits.
package transform

import (
	"fmt"
	"math"
	"sync"
)

// Kind selects one of the supported orthonormal transforms.
type Kind uint8

// Supported transforms.
const (
	DCT Kind = iota // type-II discrete cosine transform (default)
	Haar
	Identity
	WalshHadamard
	numKinds
)

// ParseKind converts a user-facing name to a Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "dct":
		return DCT, nil
	case "haar":
		return Haar, nil
	case "identity", "id":
		return Identity, nil
	case "walsh-hadamard", "wht", "hadamard":
		return WalshHadamard, nil
	}
	return 0, fmt.Errorf("transform: unknown transform %q", name)
}

// String returns the canonical name.
func (k Kind) String() string {
	switch k {
	case DCT:
		return "dct"
	case Haar:
		return "haar"
	case Identity:
		return "identity"
	case WalshHadamard:
		return "walsh-hadamard"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined transform kind.
func (k Kind) Valid() bool { return k < numKinds }

// Transform caches the orthonormal matrices of one transform kind for the
// block sizes in use. It is safe for concurrent use.
type Transform struct {
	kind Kind
	mu   sync.RWMutex
	mats map[int][]float64 // size → flat s×s matrix, H[α*s+γ]
}

// New returns a Transform of the given kind.
func New(kind Kind) *Transform {
	if !kind.Valid() {
		panic(fmt.Sprintf("transform: invalid kind %d", kind))
	}
	return &Transform{kind: kind, mats: make(map[int][]float64)}
}

// Matrix returns the flat s×s orthonormal matrix for block size s,
// computing and caching it on first use. Entry (α, γ) is at index α*s+γ.
func (t *Transform) Matrix(s int) []float64 {
	t.mu.RLock()
	m, ok := t.mats[s]
	t.mu.RUnlock()
	if ok {
		return m
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok = t.mats[s]; ok {
		return m
	}
	switch t.kind {
	case DCT:
		m = dctMatrix(s)
	case Haar:
		m = haarMatrix(s)
	case Identity:
		m = identityMatrix(s)
	case WalshHadamard:
		m = hadamardMatrix(s)
	}
	t.mats[s] = m
	return m
}

// dctMatrix builds the orthonormal DCT-II basis of size s:
// H[α][γ] = √((1+[γ>0])/s)·cos(π·γ·(2α+1)/(2s)), 0-based, matching the
// paper's Appendix A (1-based: H_ij = √((1+(j>1))/s)·cos(πi(2j+1)/2s)).
func dctMatrix(s int) []float64 {
	m := make([]float64, s*s)
	for alpha := 0; alpha < s; alpha++ {
		for gamma := 0; gamma < s; gamma++ {
			scale := math.Sqrt(2 / float64(s))
			if gamma == 0 {
				scale = math.Sqrt(1 / float64(s))
			}
			m[alpha*s+gamma] = scale * math.Cos(math.Pi*float64(gamma)*(2*float64(alpha)+1)/(2*float64(s)))
		}
	}
	return m
}

// haarMatrix builds the orthonormal Haar wavelet basis of size s, which
// must be a power of two. Column 0 is the constant 1/√s; column k (k ≥ 1)
// is a scaled step wavelet.
func haarMatrix(s int) []float64 {
	if s&(s-1) != 0 {
		panic(fmt.Sprintf("transform: Haar requires power-of-two size, got %d", s))
	}
	m := make([]float64, s*s)
	inv := 1 / math.Sqrt(float64(s))
	for alpha := 0; alpha < s; alpha++ {
		m[alpha*s] = inv
	}
	col := 1
	for level := 1; level < s; level *= 2 {
		// 'level' wavelets at this scale, each supported on s/level samples.
		width := s / level
		amp := math.Sqrt(float64(level) / float64(s))
		for j := 0; j < level; j++ {
			start := j * width
			for alpha := start; alpha < start+width/2; alpha++ {
				m[alpha*s+col] = amp
			}
			for alpha := start + width/2; alpha < start+width; alpha++ {
				m[alpha*s+col] = -amp
			}
			col++
		}
	}
	return m
}

// hadamardMatrix builds the orthonormal Walsh–Hadamard basis of size s
// (a power of two) via the Sylvester construction H_{2n} = [H H; H −H],
// scaled by 1/√s. Column 0 is the constant 1/√s, so the mean-based
// operations work under this transform too.
func hadamardMatrix(s int) []float64 {
	if s&(s-1) != 0 {
		panic(fmt.Sprintf("transform: Walsh-Hadamard requires power-of-two size, got %d", s))
	}
	m := make([]float64, s*s)
	inv := 1 / math.Sqrt(float64(s))
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			// Entry sign is (−1)^(popcount(i AND j)).
			if popcount(uint(i&j))%2 == 0 {
				m[i*s+j] = inv
			} else {
				m[i*s+j] = -inv
			}
		}
	}
	return m
}

func popcount(v uint) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func identityMatrix(s int) []float64 {
	m := make([]float64, s*s)
	for i := 0; i < s; i++ {
		m[i*s+i] = 1
	}
	return m
}
