package core

import (
	"math"

	"repro/internal/bits"
)

// The reductions as they were before they skipped zero indices: every
// coefficient recovered, one accumulator per sum, element order. They
// are the oracle for nonzero.go's walks, which must agree with them to
// the last bit.

func denseSumSquares[T bits.Signed](w width[T], c *Compressor, a *CompressedArray) float64 {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	f := w.of(a)
	s := 0.0
	for k, nk := range a.N {
		for _, v := range f[k*K : (k+1)*K] {
			ca := ft.Round(nk * float64(v) / r)
			s += ca * ca
		}
	}
	return s
}

func denseMoments[T bits.Signed](w width[T], c *Compressor, a *CompressedArray) (sum, sumSq float64) {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	f := w.of(a)
	for k, nk := range a.N {
		blk := f[k*K : (k+1)*K]
		c0 := ft.Round(nk * float64(blk[0]) / r)
		// The conversion keeps the product from fusing into the sum.
		sum += float64(c0 * c.sqrtVol)
		sumSq += c0 * c0
		for _, v := range blk[1:] {
			ca := ft.Round(nk * float64(v) / r)
			sumSq += ca * ca
		}
	}
	return sum, sumSq
}

func denseDot3[T bits.Signed](w width[T], c *Compressor, a, b *CompressedArray) (ab, aa, bb float64) {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	fa, fb := w.of(a), w.of(b)
	for k, na := range a.N {
		nb := b.N[k]
		ia, ib := fa[k*K:(k+1)*K], fb[k*K:(k+1)*K]
		for i, v := range ia {
			ca, cb := ft.Round(na*float64(v)/r), ft.Round(nb*float64(ib[i])/r)
			ab += ca * cb
			aa += ca * ca
			bb += cb * cb
		}
	}
	return ab, aa, bb
}

func denseBlockBounds[T bits.Signed](w width[T], c *Compressor, a *CompressedArray, dst []float64) (top, bot int, ok bool) {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	f := w.of(a)
	vol := float64(c.plan.Vol())
	spread := math.Sqrt(1 - 1/vol)
	first := 0
	if c.keep[0] == 0 {
		first = 1
	}
	peak := c.peak[first:]
	grow, tiny := 1+ft.MachineEpsilon(), ft.SmallestSubnormal()
	peakSum := 0.0
	for _, p := range peak {
		peakSum += p
	}
	l1Tiny, l2Tiny := tiny*peakSum, tiny*math.Sqrt(float64(len(peak)))*spread
	for k, nk := range a.N {
		blk := f[k*K : (k+1)*K]
		var dc float64
		if first == 1 {
			dc = ft.Round(nk * float64(blk[0]) / r)
		}
		ac := blk[first:]
		pk := peak[:len(ac)]
		var s1, s2 float64
		for i, v := range ac {
			x := float64(v)
			s1 += math.Abs(x) * pk[i]
			s2 += x * x
		}
		scale := math.Abs(nk) / r * grow
		l1 := scale*s1 + l1Tiny
		l2 := scale*math.Sqrt(s2)*spread + l2Tiny
		rad := min(l1, l2) + roundingSlack*vol*(math.Abs(dc)+c.sqrtVol*l1) + underflowSlack
		m := dc / c.sqrtVol
		lo, hi := m-rad, m+rad
		if !(math.Abs(lo) <= math.MaxFloat64 && math.Abs(hi) <= math.MaxFloat64) {
			return 0, 0, false
		}
		dst[2*k], dst[2*k+1] = lo, hi
		if hi > dst[2*top+1] {
			top = k
		}
		if lo < dst[2*bot] {
			bot = k
		}
	}
	return top, bot, true
}

func denseBlockCovariances[T bits.Signed](w width[T], c *Compressor, a, b *CompressedArray, dst []float64) {
	K := len(c.keep)
	ft, r := c.settings.FloatType, c.radius
	fa, fb := w.of(a), w.of(b)
	vol := float64(c.plan.Vol())
	same := a == b
	for k := range dst {
		na, nb := a.N[k], b.N[k]
		ia, ib := fa[k*K:(k+1)*K], fb[k*K:(k+1)*K]
		dot := 0.0
		for i, v := range ia {
			ca := ft.Round(na * float64(v) / r)
			cb := ca
			if !same {
				cb = ft.Round(nb * float64(ib[i]) / r)
			}
			dot += ca * cb
		}
		meanA := ft.Round(na*float64(ia[0])/r) / c.sqrtVol
		meanB := ft.Round(nb*float64(ib[0])/r) / c.sqrtVol
		dst[k] = dot/vol - meanA*meanB
	}
}
