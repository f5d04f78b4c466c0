package te

import (
	"testing"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// TestSlackOrdering asserts the relations the slack block in maxmin.go
// states between MaxMin's tolerances and the LP solver's.
func TestSlackOrdering(t *testing.T) {
	if !(lp.DefaultTol <= floorSlack) {
		t.Errorf("floorSlack %g is below the solver's feasibility tolerance %g: a floor read off a solution may not be satisfied by it", floorSlack, lp.DefaultTol)
	}
	if !(floorSlack < freezeTol) {
		t.Errorf("floorSlack %g is not below freezeTol %g: a flow sitting on its slackened floor would be frozen by the slack alone", floorSlack, freezeTol)
	}
	if !(floorSlack <= frozenSlack) {
		t.Errorf("frozenSlack %g is below floorSlack %g: a frozen row must give way at least as much as any other floor", frozenSlack, floorSlack)
	}
}

// TestRelaxRespectsEarlierClassesUnderFixRoutes: under FixRoutes the
// relaxation fallback must solve over the capacity earlier classes left,
// not over the whole link. Class 0 fills link A-B; class 1 is promised all
// of its A-B demand, which is infeasible, so its round falls back to
// relaxAndSolve — and may hand out nothing, not the link a second time.
func TestRelaxRespectsEarlierClassesUnderFixRoutes(t *testing.T) {
	tp := topo.TriangleNoBC() // A-B and A-C only
	inst := NewInstance(tp, []Class{
		{Name: "high", Beta: 0.999, Weight: 1000, Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Beta: 0.99, Weight: 1, Tunnels: tunnels.LowPriority(3, 3)},
	})
	inst.Demand[0][0] = 1 // high A-B
	inst.Demand[1][0] = 1 // low A-B
	inst.Scenarios = []failure.Scenario{{Prob: 1}}
	minFrac := make([]float64, inst.NumFlows())
	minFrac[inst.FlowID(1, 0)] = 1
	res, err := MaxMin(inst, inst.Scenarios[0], MaxMinOptions{FixRoutes: true, MinFrac: minFrac})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Frac[inst.FlowID(0, 0)], 1) {
		t.Fatalf("high class got %v, want 1", res.Frac[inst.FlowID(0, 0)])
	}
	checkResultFeasible(t, inst, inst.Scenarios[0], res)
}
