package flexile_test

import (
	"math"
	"testing"

	"flexile"
	"flexile/internal/experiments"
)

// TestDesignCountsPinned pins, on the three instances the repository
// benchmark designs (bench/design.go), the solver counts and the PercLoss
// bits a default-options Design produces. A change that promises "same
// pivots, less time" must leave every row untouched; a change that moves
// one has changed the pivot sequence and says so by editing the row.
func TestDesignCountsPinned(t *testing.T) {
	type counts struct{ solves, pivots, phase1, flips, degenerate, refactors, refreshes int64 }
	cases := []struct {
		name      string
		topo      string
		twoClass  bool
		scenarios int
		scale     float64
		want      counts
		percLoss  []float64
		long      bool
	}{
		{"design-wide", "ATT", false, 4, 1.3, counts{8, 4984, 1213, 956, 3353, 31, 59}, []float64{0}, true},
		{"design-lp", "IBM", false, 20, 1.5, counts{51, 16411, 6602, 5458, 9189, 79, 260}, []float64{3.772590014982197e-15}, false},
		{"design-twoclass", "Sprint", true, 20, 1.0, counts{194, 32527, 17798, 11259, 8324, 190, 800}, []float64{5.855456935087231e-15, 0.17365150193606413}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("ATT design takes seconds; skipped under -short")
			}
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
			res, err := flexile.Design(inst, flexile.DesignOptions{})
			if err != nil {
				t.Fatal(err)
			}
			lp := res.Report.Metrics.LP
			got := counts{lp.Solves, lp.Pivots, lp.Phase1Pivots, lp.BoundFlips, lp.DegeneratePivots, lp.Refactorizations, lp.PriceRefreshes}
			if got != tc.want {
				t.Errorf("LP solves/pivots/phase1/flips/degenerate/refactors/refreshes = %+v, want %+v", got, tc.want)
			}
			if len(res.PercLoss) != len(tc.percLoss) {
				t.Fatalf("PercLoss = %v, want %v", res.PercLoss, tc.percLoss)
			}
			for k, want := range tc.percLoss {
				if math.Float64bits(res.PercLoss[k]) != math.Float64bits(want) {
					t.Errorf("PercLoss[%d] = %v, want %v bit for bit", k, res.PercLoss[k], want)
				}
			}
		})
	}
}
