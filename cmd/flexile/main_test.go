package main

import "testing"

// TestCheckGamma: -gamma 0 is refused (the design would read it as "no
// bound"); a positive γ bounds and a negative one disables, both accepted.
func TestCheckGamma(t *testing.T) {
	if checkGamma(0) == nil {
		t.Fatal("-gamma 0 accepted")
	}
	for _, g := range []float64{-1, 1e-9, 0.1} {
		if err := checkGamma(g); err != nil {
			t.Fatalf("-gamma %v: %v", g, err)
		}
	}
}
