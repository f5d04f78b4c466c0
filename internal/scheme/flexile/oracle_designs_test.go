package flexile_test

import (
	"testing"

	"flexile/internal/experiments"
	"flexile/internal/scheme/flexile"
)

// TestMIPMasterOracleDesigns runs the MIP-master oracle (oracle_test.go) on
// two of the benchmark's design instances, built as TestDesignCountsPinned
// builds them: at every master step the MIP returns the descent's point.
func TestMIPMasterOracleDesigns(t *testing.T) {
	for _, tc := range []struct {
		name      string
		topo      string
		twoClass  bool
		scenarios int
		scale     float64
		steps     int
	}{
		{"design-lp", "IBM", false, 20, 1.5, 1},
		{"design-twoclass", "Sprint", true, 20, 1.0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := experiments.Config{Scale: experiments.Small, MaxScenarios: tc.scenarios, Seed: 1}
			build := cfg.SingleClass
			if tc.twoClass {
				build = cfg.TwoClass
			}
			inst, err := build(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			inst.ScaleDemands(tc.scale)
			flexile.CheckMIPOracle(t, inst, flexile.Options{}, tc.steps, nil)
		})
	}
}
