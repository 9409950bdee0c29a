package transform

import "fmt"

// Plan is a Transform resolved for one block shape: the per-axis matrices
// are looked up once, in both orientations, so the per-block loop takes no
// lock and builds no slice, and forward and inverse each read their matrix
// with unit stride. A Plan is immutable and safe for concurrent use; the
// scratch Forward and Inverse take is the caller's.
type Plan struct {
	vol     int
	scratch int
	axes    []planAxis
}

// planAxis is one axis of length > 1. Row γ of fwd and of inv holds the L
// factors of output γ, in operand order: out[γ] = Σ_α in[α]·m[γ·L+α].
type planAxis struct {
	L, stride int
	fwd       []float64 // fwd[γ·L+α] = H[α][γ]
	inv       []float64 // inv[α·L+γ] = H[α][γ], the matrix as stored
}

// Plan resolves t for blocks of the given shape (row-major).
func (t *Transform) Plan(blockShape []int) *Plan {
	p := &Plan{vol: 1}
	for _, e := range blockShape {
		if e <= 0 {
			panic(fmt.Sprintf("transform: invalid block shape %v", blockShape))
		}
		p.vol *= e
	}
	stride := p.vol
	for _, L := range blockShape {
		stride /= L
		if L == 1 {
			continue
		}
		H := t.Matrix(L)
		fwd := make([]float64, L*L)
		for alpha := 0; alpha < L; alpha++ {
			for gamma := 0; gamma < L; gamma++ {
				fwd[gamma*L+alpha] = H[alpha*L+gamma]
			}
		}
		p.axes = append(p.axes, planAxis{L: L, stride: stride, fwd: fwd, inv: H})
		if L != 4 && L != 8 && L > p.scratch {
			p.scratch = L
		}
	}
	return p
}

// Vol returns the block volume the plan was built for.
func (p *Plan) Vol() int { return p.vol }

// Scratch returns how many floats of scratch Forward and Inverse need:
// the longest axis the unrolled kernels do not cover, 0 when they cover
// every axis (all of length 1, 4 or 8).
func (p *Plan) Scratch() int { return p.scratch }

// Forward transforms one row-major block in place, applying the 1-D
// transform separably along every axis. len(scratch) must be at least
// Scratch().
func (p *Plan) Forward(block, scratch []float64) {
	p.check(block, scratch)
	for i := range p.axes {
		ax := &p.axes[i]
		applyAxis(block, scratch, ax.L, ax.stride, ax.fwd)
	}
}

// Inverse inverts Forward in place (up to floating-point rounding), using
// the transpose of each orthonormal matrix.
func (p *Plan) Inverse(block, scratch []float64) {
	p.check(block, scratch)
	for i := range p.axes {
		ax := &p.axes[i]
		applyAxis(block, scratch, ax.L, ax.stride, ax.inv)
	}
}

func (p *Plan) check(block, scratch []float64) {
	if len(block) != p.vol {
		panic(fmt.Sprintf("transform: block length %d does not match plan volume %d", len(block), p.vol))
	}
	if len(scratch) < p.scratch {
		panic("transform: scratch too small")
	}
}

// applyAxis replaces every line of one axis by its product with m. The
// block is row-major; for an axis of length L and (inner) stride st the
// lines start at offsets outer·L·st + inner for inner ∈ [0, st), first
// axes and the contiguous last axis alike.
//
// Every output is the sum 0.0 + x₀·m₀ + x₁·m₁ + …, added left to right:
// the order is part of the answer (−0, Inf and NaN propagation under the
// emulated half-precision types, and which pairs an FMA-fusing compiler
// contracts), so the unrolled kernels spell it out rather than regroup.
func applyAxis(block, scratch []float64, L, st int, m []float64) {
	switch L {
	case 8:
		axis8(block, st, m)
	case 4:
		axis4(block, st, m)
	default:
		line := scratch[:L]
		for base := 0; base < len(block); base += L * st {
			for o := base; o < base+st; o++ {
				for a := range line {
					line[a] = block[o+a*st]
				}
				for g := 0; g < L; g++ {
					acc := 0.0
					for a, x := range line {
						acc += x * m[g*L+a]
					}
					block[o+g*st] = acc
				}
			}
		}
	}
}

// axis8 is applyAxis for L = 8. With the line in locals the eight outputs
// are independent chains the processor overlaps (the generic loop is one
// latency-bound accumulator), and no scratch copy is needed.
func axis8(block []float64, st int, m []float64) {
	for base := 0; base < len(block); base += 8 * st {
		for o := base; o < base+st; o++ {
			b := block[o : o+7*st+1]
			x0, x1, x2, x3 := b[0], b[st], b[2*st], b[3*st]
			x4, x5, x6, x7 := b[4*st], b[5*st], b[6*st], b[7*st]
			for g := 0; g < 8; g++ {
				r := m[g*8 : g*8+8 : g*8+8]
				b[g*st] = 0.0 + x0*r[0] + x1*r[1] + x2*r[2] + x3*r[3] + x4*r[4] + x5*r[5] + x6*r[6] + x7*r[7]
			}
		}
	}
}

// axis4 is axis8 for an axis of length four.
func axis4(block []float64, st int, m []float64) {
	for base := 0; base < len(block); base += 4 * st {
		for o := base; o < base+st; o++ {
			b := block[o : o+3*st+1]
			x0, x1, x2, x3 := b[0], b[st], b[2*st], b[3*st]
			for g := 0; g < 4; g++ {
				r := m[g*4 : g*4+4 : g*4+4]
				b[g*st] = 0.0 + x0*r[0] + x1*r[1] + x2*r[2] + x3*r[3]
			}
		}
	}
}
