package flexile_test

import (
	"math"
	"testing"

	"flexile"
	"flexile/internal/experiments"
)

// TestDesignCountsPinned pins, on the three instances the repository
// benchmark designs (bench/design.go), the LP counts, the master MIP's
// solves and nodes, and the PercLoss bits a default-options Design produces. A change that promises "same
// pivots, less time" must leave every row untouched; a change that moves
// one has changed the pivot sequence and says so by editing the row.
func TestDesignCountsPinned(t *testing.T) {
	type counts struct{ solves, pivots, phase1, flips, degenerate, refactors, refreshes int64 }
	type master struct{ solves, nodes int64 }
	cases := []struct {
		name      string
		topo      string
		twoClass  bool
		scenarios int
		scale     float64
		want      counts
		mip       master
		percLoss  []float64
		long      bool
	}{
		{"design-wide", "ATT", false, 4, 1.3, counts{8, 4984, 1213, 956, 3353, 31, 59}, master{0, 0}, []float64{0}, true},
		{"design-lp", "IBM", false, 20, 1.5, counts{50, 13693, 4106, 2951, 9184, 78, 255}, master{1, 0}, []float64{0}, false},
		{"design-twoclass", "Sprint", true, 20, 1.0, counts{190, 21836, 10015, 4725, 8312, 180, 688}, master{5, 120}, []float64{0, 0.17365150193606416}, false},
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
			mm := res.Report.Metrics.MIP
			if got := (master{mm.Solves, mm.Nodes}); got != tc.mip {
				t.Errorf("MIP solves/nodes = %+v, want %+v", got, tc.mip)
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

// TestDesignQualityEvaluated checks the design-twoclass design (Sprint, two
// classes, 20 scenarios) from the outside: the scheme's routing, evaluated
// scenario by scenario, must lose what the offline phase promised — each
// class's PercLoss within 1e-6 of the design's own — and the evaluated
// penalty must stay at or below the pinned one. The master MIP is
// node-limited, so a change that only perturbs float association in the
// LPs can land it on a worse design (DESIGN.md §2.2); this is the tier-1
// guard for that.
func TestDesignQualityEvaluated(t *testing.T) {
	const pinPenalty = 0.17382509686758785
	inst, err := experiments.Config{Scale: experiments.Small, MaxScenarios: 20, Seed: 1}.TwoClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	fx := flexile.NewFlexile()
	routing, err := fx.Route(inst)
	if err != nil {
		t.Fatal(err)
	}
	ev := flexile.Evaluate(inst, routing)
	for k, want := range fx.Offline.PercLoss {
		if math.Abs(ev.PercLoss[k]-want) > 1e-6 {
			t.Errorf("class %d: evaluated PercLoss %v, the design promised %v", k, ev.PercLoss[k], want)
		}
	}
	t.Logf("evaluated PercLoss %v, penalty %v (design %v)", ev.PercLoss, ev.Penalty, fx.Offline.PercLoss)
	if ev.Penalty > pinPenalty+1e-6 {
		t.Errorf("evaluated penalty %v, pinned %v", ev.Penalty, pinPenalty)
	}
}
