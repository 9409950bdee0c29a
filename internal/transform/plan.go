package transform

import (
	"fmt"
	mathbits "math/bits"
)

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

// planAxis is one axis of length > 1, with stride·L positions to a slab
// of the block. Row γ of fwd and of inv holds the L factors of output γ,
// in operand order: out[γ] = Σ_α in[α]·m[γ·L+α].
type planAxis struct {
	L, stride, slabs int
	fwd              []float64 // fwd[γ·L+α] = H[α][γ]
	inv              []float64 // inv[α·L+γ] = H[α][γ], the matrix as stored
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
		p.axes = append(p.axes, planAxis{L: L, stride: stride, slabs: p.vol / (L * stride), fwd: fwd, inv: H})
		if L != 4 && L != 8 && L > p.scratch {
			p.scratch = L
		}
	}
	return p
}

// Vol returns the block volume the plan was built for.
func (p *Plan) Vol() int { return p.vol }

// Scratch returns how many floats of scratch Forward, Inverse and
// InverseOccupied need: the longest axis the unrolled kernels do not
// cover, 0 when they cover every axis (all of length 1, 4 or 8).
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

// MarkWords returns how many words of marks InverseOccupied takes: a bit
// a position of the block, and as many words again for its own use.
func (p *Plan) MarkWords() int { return 2 * ((p.vol + 63) / 64) }

// InverseOccupied is Inverse for a block that holds +0 at every position
// occ leaves unmarked. occ is MarkWords() words, position q marked by bit
// q%64 of occ[q/64]; the words past the marks are InverseOccupied's own,
// zero on entry. Every output equals Inverse's bit for bit, and occ is all
// zero again on return. len(scratch) must be at least Scratch().
//
// A pass along one axis reads only the lines that hold a marked position.
// A line with none is +0 throughout, and Inverse writes +0 over it (each
// of its terms x·m is ±0, every matrix entry being finite), so the pass
// leaves it be. Every output of the other lines is written as 0.0 plus
// the line's marked terms in ascending operand order: Inverse's own sum
// with its +0·m terms left out. Leaving them out changes nothing, because
// the sum starts at +0 and under round-to-nearest x + y is −0 only when
// both are, so the sum is never −0, and adding ±0 to a sum that is not
// −0 — ±Inf and NaN included — leaves it as it was. The lines a pass
// writes are marked along their whole length for the passes after it, so
// their marks live on the grid of the axes still to come: a position of
// that grid is marked when a line through it holds a mark.
//
// Counted in columns of L multiply-adds, Inverse's loop, unrolled and
// with no bookkeeping, costs L for every line of every slab; the walk
// costs about 1.5 a marked term and a written line in every slab, and 8
// a written line for finding its terms (measured on amd64). A pass walks
// only where that is cheaper, and never along an axis longer than 64.
// Either way the marks of the next pass are the lines that hold one, so
// the choice is made pass by pass, from the marks alone, never the
// values; once a pass writes every line, every later pass is marked
// throughout and runs Inverse's loop.
//
// The bit-identity is asserted on the amd64 build CI runs
// (occupied_test.go). The compiler never fuses x*y+z into one FMA on
// amd64, at any GOAMD64 level; it may on arm64, ppc64le, s390x and
// riscv64. A fused sum that starts at +0 can round to −0 (an underflowing
// product is added exactly), after which a +0 term is no longer
// invisible, so on those builds the identity is not claimed.
func (p *Plan) InverseOccupied(block, scratch []float64, occ []uint64) {
	p.check(block, scratch)
	if len(occ) != p.MarkWords() {
		panic(fmt.Sprintf("transform: %d words of marks, plan takes %d", len(occ), p.MarkWords()))
	}
	marks, lines := occ[:len(occ)/2], occ[len(occ)/2:]
	terms := 0
	for _, w := range marks {
		terms += mathbits.OnesCount64(w)
	}
	if terms == 0 {
		return
	}
	for i := range p.axes {
		ax := &p.axes[i]
		L, st, slabs := ax.L, ax.stride, ax.slabs
		written := markLines(lines, marks, L, st)
		if L <= 64 && 3*slabs*(terms+written)+16*written < 2*slabs*st*L {
			occupiedAxis(block, scratch, marks, lines, L, st, ax.fwd)
		} else {
			applyAxis(block, scratch, L, st, ax.inv)
		}
		unmark(marks, L*st)
		marks, lines, terms = lines, marks, written
		if written == st { // every later pass is marked throughout
			unmark(marks, st)
			for i++; i < len(p.axes); i++ {
				ax := &p.axes[i]
				applyAxis(block, scratch, ax.L, ax.stride, ax.inv)
			}
			return
		}
	}
	unmark(marks, 1)
}

// unmark zeroes the words of the first n marks, a store a word: there are
// few, fewer than a call to clear costs.
func unmark(marks []uint64, n int) {
	for i := 0; i < (n+63)/64; i++ {
		marks[i] = 0
	}
}

// markLines marks in lines, which is zero, the lines of an axis that hold
// a position marks marks — marks holds the positions a·st + inner of one
// slab of the block, which every slab shares, and lines gets bit inner —
// and returns how many it marked.
func markLines(lines, marks []uint64, L, st int) int {
	if L*st <= 64 && L&(L-1) == 0 { // one word: fold it in halves onto its first chunk
		x := marks[0]
		for h := L * st / 2; h >= st; h /= 2 {
			x |= x >> uint(h)
		}
		lines[0] = x & (1<<uint(st) - 1)
		return mathbits.OnesCount64(lines[0])
	}
	n := 0
	for k := 0; k < st; k += 64 {
		for a := 0; a < L; a++ {
			lines[k>>6] |= bitsAt(marks, a*st+k, min(64, st-k))
		}
		n += mathbits.OnesCount64(lines[k>>6])
	}
	return n
}

// occupiedAxis is applyAxis over the lines that lines marks (markLines),
// each from the operands marks marks. cols is the inverse's matrix by
// columns — the forward's by rows: column a, the factors of operand a, is
// cols[a·L:(a+1)·L].
func occupiedAxis(block, scratch []float64, marks, lines []uint64, L, st int, cols []float64) {
	for k := 0; k < st; k += 64 {
		for u := lines[k>>6]; u != 0; u &= u - 1 {
			inner := k + mathbits.TrailingZeros64(u)
			terms := termsOf(marks, inner, L, st)
			switch L {
			case 8:
				occupied8(block, inner, st, terms, cols)
			case 4:
				occupied4(block, inner, st, terms, cols)
			default:
				sums := scratch[:L]
				for o := inner; o < len(block); o += L * st {
					clear(sums)
					for u := terms; u != 0; u &= u - 1 {
						a := mathbits.TrailingZeros64(u)
						x := block[o+a*st]
						for g, h := range cols[a*L : a*L+L] {
							sums[g] += x * h
						}
					}
					for g, y := range sums {
						block[o+g*st] = y
					}
				}
			}
		}
	}
}

// termsOf returns the marks of the line at offset inner, operand a as
// bit a.
func termsOf(marks []uint64, inner, L, st int) uint64 {
	var terms uint64
	if L*st <= 64 {
		w := marks[0] >> uint(inner)
		if st == 1 {
			return w & (1<<uint(L) - 1)
		}
		for a := 0; a < L; a++ {
			terms |= w & 1 << uint(a)
			w >>= uint(st)
		}
		return terms
	}
	for a, at := 0, inner; a < L; a, at = a+1, at+st {
		terms |= marks[at>>6] >> uint(at&63) & 1 << uint(a)
	}
	return terms
}

// bitsAt returns the n ≤ 64 bits of s from bit from on, bit from lowest.
func bitsAt(s []uint64, from, n int) uint64 {
	w, sh := from>>6, uint(from&63)
	x := s[w] >> sh
	if sh+uint(n) > 64 {
		x |= s[w+1] << (64 - sh)
	}
	return x & (1<<uint(n) - 1)
}

// occupied8 writes the lines at offsets inner + outer·8·st of an axis of
// length 8 from their operands terms marks, eight sums in locals that
// each add one term per operand, as axis8 keeps its operands in locals.
func occupied8(block []float64, inner, st int, terms uint64, cols []float64) {
	for o := inner; o < len(block); o += 8 * st {
		b := block[o : o+7*st+1]
		var y0, y1, y2, y3, y4, y5, y6, y7 float64
		for u := terms; u != 0; u &= u - 1 {
			a := mathbits.TrailingZeros64(u)
			x, c := b[a*st], cols[a*8:a*8+8:a*8+8]
			y0 += x * c[0]
			y1 += x * c[1]
			y2 += x * c[2]
			y3 += x * c[3]
			y4 += x * c[4]
			y5 += x * c[5]
			y6 += x * c[6]
			y7 += x * c[7]
		}
		b[0], b[st], b[2*st], b[3*st] = y0, y1, y2, y3
		b[4*st], b[5*st], b[6*st], b[7*st] = y4, y5, y6, y7
	}
}

// occupied4 is occupied8 for an axis of length four.
func occupied4(block []float64, inner, st int, terms uint64, cols []float64) {
	for o := inner; o < len(block); o += 4 * st {
		b := block[o : o+3*st+1]
		var y0, y1, y2, y3 float64
		for u := terms; u != 0; u &= u - 1 {
			a := mathbits.TrailingZeros64(u)
			x, c := b[a*st], cols[a*4:a*4+4:a*4+4]
			y0 += x * c[0]
			y1 += x * c[1]
			y2 += x * c[2]
			y3 += x * c[3]
		}
		b[0], b[st], b[2*st], b[3*st] = y0, y1, y2, y3
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
