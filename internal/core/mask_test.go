package core

import "testing"

func TestKeepLowFrequency(t *testing.T) {
	m, err := KeepLowFrequency([]int{4, 4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if KeptFraction(m) != 0.5 {
		t.Errorf("KeptFraction = %g", KeptFraction(m))
	}
	if !m[0] {
		t.Error("first coefficient must always be kept")
	}
	// The highest-frequency corner (3,3) = position 15 must be pruned.
	if m[15] {
		t.Error("highest-frequency coefficient should be pruned at 0.5")
	}
	// Low frequencies kept: (0,1) and (1,0).
	if !m[1] || !m[4] {
		t.Error("low-frequency coefficients should be kept")
	}
}

func TestKeepLowFrequencyBounds(t *testing.T) {
	if _, err := KeepLowFrequency([]int{4}, 0); err == nil {
		t.Error("fraction 0 should fail")
	}
	if _, err := KeepLowFrequency([]int{4}, 1.5); err == nil {
		t.Error("fraction > 1 should fail")
	}
	// Tiny fraction still keeps at least the first coefficient.
	m, err := KeepLowFrequency([]int{8, 8}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !m[0] {
		t.Error("must keep first coefficient")
	}
}

func TestKeptFractionEmpty(t *testing.T) {
	if KeptFraction(nil) != 1 {
		t.Error("nil mask keeps everything")
	}
}
