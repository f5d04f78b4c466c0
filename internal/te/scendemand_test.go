package te

import (
	"context"
	"testing"

	"flexile/internal/failure"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// scenDemandInstance builds the triangle with demand 1 per flow in the
// all-alive scenario and demand 0.5 per flow in every failure scenario
// (the §4.4 per-scenario traffic matrix extension).
func scenDemandInstance() *Instance {
	tp := topo.Triangle()
	inst := NewInstance(tp, []Class{{
		Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3),
	}})
	inst.Demand[0][0] = 1
	inst.Demand[0][1] = 1
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
	inst.ScenDemand = make([][]float64, len(inst.Scenarios))
	for q, s := range inst.Scenarios {
		if len(s.Failed) == 0 {
			continue // base matrix in the all-alive state
		}
		d := make([]float64, inst.NumFlows())
		d[inst.FlowID(0, 0)] = 0.5
		d[inst.FlowID(0, 1)] = 0.5
		inst.ScenDemand[q] = d
	}
	return inst
}

func TestDemandIn(t *testing.T) {
	inst := scenDemandInstance()
	if got := inst.DemandIn(0, 0, 0); !approx(got, 1) {
		t.Fatalf("all-alive demand = %v, want base 1", got)
	}
	qFail := scenarioWithFailed(inst, 0)
	if got := inst.DemandIn(0, 0, qFail); !approx(got, 0.5) {
		t.Fatalf("failure-scenario demand = %v, want 0.5", got)
	}
	if got := inst.DemandIn(0, 0, -1); !approx(got, 1) {
		t.Fatalf("q=-1 must give the base matrix, got %v", got)
	}
}

func TestLossUsesScenarioDemand(t *testing.T) {
	inst := scenDemandInstance()
	qFail := scenarioWithFailed(inst, 0) // A-B down
	r := NewRouting(inst)
	// Deliver 0.5 to flow A-B via A-C-B: at scenario demand 0.5 that is a
	// full delivery (loss 0), although at base demand it would be 50% loss.
	for ti, p := range inst.Tunnels[0][0] {
		if p.Len() == 2 {
			r.X[qFail][0][0][ti] = 0.5
		}
	}
	if got := r.Loss(inst, 0, 0, qFail); got > 1e-9 {
		t.Fatalf("loss = %v, want 0 at the scenario demand", got)
	}
}

func TestMaxMinScenarioDemand(t *testing.T) {
	inst := scenDemandInstance()
	qFail := scenarioWithFailed(inst, 0)
	res, err := MaxMin(inst, inst.Scenarios[qFail], MaxMinOptions{
		Demands: inst.ScenDemandVector(qFail),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both halved demands fit simultaneously (0.5 + 0.5 on link A-C).
	if !approx(res.Frac[inst.FlowID(0, 0)], 1) || !approx(res.Frac[inst.FlowID(0, 1)], 1) {
		t.Fatalf("fracs = %v, want full delivery at halved demands", res.Frac)
	}
}

func TestScaleAndCloneWithScenDemand(t *testing.T) {
	inst := scenDemandInstance()
	c := inst.Clone()
	c.ScaleDemands(2)
	qFail := scenarioWithFailed(inst, 0)
	if !approx(c.DemandIn(0, 0, qFail), 1) {
		t.Fatalf("scaled scenario demand = %v, want 1", c.DemandIn(0, 0, qFail))
	}
	if !approx(inst.DemandIn(0, 0, qFail), 0.5) {
		t.Fatal("clone aliased scenario demands")
	}
	c.ScaleClassDemands(0, 0.5)
	if !approx(c.DemandIn(0, 0, qFail), 0.5) {
		t.Fatalf("class-scaled scenario demand = %v", c.DemandIn(0, 0, qFail))
	}
}

// TestMaxConcurrentScaleD: the demand override of MaxConcurrentScaleCtx.
func TestMaxConcurrentScaleD(t *testing.T) {
	inst := scenDemandInstance()
	qFail := scenarioWithFailed(inst, 0)
	scen := inst.Scenarios[qFail]
	// At base demands the scale is 0.5; at the scenario's halved demands
	// it doubles to 1.0.
	zBase, _, _, err := MaxConcurrentScale(inst, scen, nil)
	if err != nil {
		t.Fatal(err)
	}
	zScen, _, _, err := MaxConcurrentScaleCtx(context.Background(), inst, scen, nil, inst.ScenDemandVector(qFail), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(zBase, 0.5) || !approx(zScen, 1.0) {
		t.Fatalf("zBase=%v zScen=%v, want 0.5 and 1.0", zBase, zScen)
	}
}
