package szsim

import "repro/internal/tensor"

// Ratio returns the measured compression ratio for 64-bit input.
func (a *Compressed) Ratio() float64 {
	return float64(tensor.Prod(a.Shape)*8) / float64(len(a.Stream))
}
