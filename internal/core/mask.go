package core

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// Pruning-mask constructors (§III-A(e)). A mask is a flattened Boolean
// array shaped like the block: true keeps the coefficient at that
// intrablock position. Because the transform consolidates low spatial
// frequencies into low coordinates, masks that keep the low-coordinate
// corner act as low-pass filters. A nil mask keeps every coefficient.

// KeepLowFrequency returns a mask keeping the `fraction` of coefficients
// with the smallest coordinate sum (lowest combined spatial frequency),
// always including the first coefficient. fraction must be in (0, 1].
// With fraction = 0.5 this is the paper's "pruning half the indices"
// configuration that yields the ≈10.66 ratio example.
func KeepLowFrequency(blockShape []int, fraction float64) ([]bool, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("core: keep fraction %g out of (0, 1]", fraction)
	}
	vol := tensor.Prod(blockShape)
	keepCount := int(fraction * float64(vol))
	if keepCount < 1 {
		keepCount = 1
	}
	type posFreq struct {
		pos, freq int
	}
	pf := make([]posFreq, 0, vol)
	idx := make([]int, len(blockShape))
	pos := 0
	for {
		f := 0
		for _, c := range idx {
			f += c
		}
		pf = append(pf, posFreq{pos, f})
		pos++
		if !tensor.NextIndex(idx, blockShape) {
			break
		}
	}
	sort.SliceStable(pf, func(i, j int) bool {
		if pf[i].freq != pf[j].freq {
			return pf[i].freq < pf[j].freq
		}
		return pf[i].pos < pf[j].pos
	})
	m := make([]bool, vol)
	for i := 0; i < keepCount; i++ {
		m[pf[i].pos] = true
	}
	m[0] = true
	return m, nil
}
