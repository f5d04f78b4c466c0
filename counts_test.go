package flexile_test

import (
	"math"
	"math/rand"
	"testing"

	"flexile"
	"flexile/internal/experiments"
)

// TestDesignCountsPinned pins, on the three instances the repository
// benchmark designs (bench/design.go), the LP counts, the MIP solves, nodes
// and incumbent updates, and the PercLoss bits a default-options Design
// produces. A change that promises "same pivots, less time" must leave
// every row untouched; a change that moves one has changed the pivot
// sequence and says so by editing the row.
//
// The MIP row is zero: Offline's master is the cut-guided descent, and the
// MIP master it replaced lives on as a test oracle
// (internal/scheme/flexile/oracle_test.go). A change that puts a MIP back
// on the offline path moves that row.
//
// Last moved by running the ScenLoss precompute only for the γ variant: a
// default design no longer solves one max-concurrent-flow LP per scenario.
// LP solves 8/49/57 → 4/29/37, pivots 2439/3715/3202 → 896/879/1170 and
// degenerate pivots 1776/3291/2546 → 576/628/778 (design-wide/-lp/
// -twoclass), with refactorizations and price refreshes; phase-1, dual and
// bound-flip pivots did not move. No PercLoss bit and no MIP row moved.
func TestDesignCountsPinned(t *testing.T) {
	type counts struct{ solves, pivots, phase1, dual, flips, degenerate, refactors, refreshes int64 }
	type master struct{ solves, nodes, incumbents int64 }
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
		{"design-wide", "ATT", false, 4, 1.3, counts{4, 896, 301, 43, 240, 576, 8, 18}, master{0, 0, 0}, []float64{0}, true},
		{"design-lp", "IBM", false, 20, 1.5, counts{29, 879, 137, 507, 117, 628, 30, 90}, master{0, 0, 0}, []float64{8.630249292984615e-16}, false},
		{"design-twoclass", "Sprint", true, 20, 1.0, counts{37, 1170, 92, 910, 163, 778, 38, 114}, master{0, 0, 0}, []float64{2.2204460492503126e-16, 9.43689570931383e-16}, false},
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
			got := counts{lp.Solves, lp.Pivots, lp.Phase1Pivots, lp.DualPivots, lp.BoundFlips, lp.DegeneratePivots, lp.Refactorizations, lp.PriceRefreshes}
			if got != tc.want {
				t.Errorf("LP solves/pivots/phase1/dual/flips/degenerate/refactors/refreshes = %+v, want %+v", got, tc.want)
			}
			mm := res.Report.Metrics.MIP
			if got := (master{mm.Solves, mm.Nodes, mm.IncumbentUpdates}); got != tc.mip {
				t.Errorf("MIP solves/nodes/incumbent updates = %+v, want %+v", got, tc.mip)
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
// penalty must stay at or below the pinned one. The design is the fixed
// point of a greedy descent, with no proven lower bound, so a change that
// only perturbs float association in the LPs can land it on a worse design
// (DESIGN.md §2.2); this is the tier-1 guard for that.
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

// TestDesignInvariantToScenarioOrder: a design depends on the instance's
// scenarios, not on the order it lists them in. The first decomposition
// iteration seeds its warm starts from one scenario's optimal basis, chosen
// by probability rather than position; seeded from whichever scenario came
// first, the 6-scenario two-class Sprint design below lost 0.169 of
// penalty under 7 of 36 reorderings (the benchmark's design-twoclass
// smoke instance, with its permutations). Twelve of those reorderings.
func TestDesignInvariantToScenarioOrder(t *testing.T) {
	inst, err := experiments.Config{Scale: experiments.Small, MaxScenarios: 6, Seed: 1}.TwoClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	penalty := func(in *flexile.Instance) float64 {
		res, err := flexile.Design(in, flexile.DesignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p := 0.0
		for k, c := range in.Classes {
			p += c.Weight * res.PercLoss[k]
		}
		return p
	}
	base := penalty(inst)
	for op := int64(0); op < 12; op++ {
		c := *inst
		c.Scenarios = make([]flexile.Scenario, len(inst.Scenarios))
		order := rand.New(rand.NewSource(1000003 + op)).Perm(len(inst.Scenarios))
		for i, q := range order {
			c.Scenarios[i] = inst.Scenarios[q]
		}
		if p := penalty(&c); math.Abs(p-base) > 1e-6 {
			t.Errorf("scenarios in order %v: penalty %v, in the listed order %v", order, p, base)
		}
	}
}
