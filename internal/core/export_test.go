package core

// KeptFraction returns the fraction of coefficients a mask keeps.
func KeptFraction(mask []bool) float64 {
	if len(mask) == 0 {
		return 1
	}
	kept := 0
	for _, k := range mask {
		if k {
			kept++
		}
	}
	return float64(kept) / float64(len(mask))
}
