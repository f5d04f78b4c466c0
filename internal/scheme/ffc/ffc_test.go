package ffc

import (
	"math"
	"testing"

	"flexile/internal/eval"
	"flexile/internal/failure"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

func triangleInstance() *te.Instance {
	tp := topo.Triangle()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	inst.Demand[0][0] = 1
	inst.Demand[0][1] = 1
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
	return inst
}

// TestFFCTriangleGrant: protecting against one failure on the Fig. 1
// triangle caps each grant at 0.5 — the same conservatism as Teavar, and
// the gap Flexile closes.
func TestFFCTriangleGrant(t *testing.T) {
	inst := triangleInstance()
	s := &Scheme{}
	r, err := s.Route(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckCapacity(inst, 1e-5); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if math.Abs(s.Granted[i]-0.5) > 1e-6 {
			t.Fatalf("grant[%d] = %v, want 0.5", i, s.Granted[i])
		}
	}
	losses := r.LossMatrix(inst)
	// In every ≤1-failure scenario the grant is fully delivered: loss
	// exactly 1 − grant/demand = 0.5.
	for _, q := range guaranteedStates(s, inst) {
		for _, f := range []int{0, 1} {
			if math.Abs(losses[f][q]-0.5) > 1e-6 {
				t.Fatalf("flow %d loss %v in protected scenario %d, want 0.5", f, losses[f][q], q)
			}
		}
	}
	if pl := eval.PercLoss(inst, losses, 0); math.Abs(pl-0.5) > 1e-6 {
		t.Fatalf("PercLoss = %v, want 0.5", pl)
	}
}

// TestFFCZeroProtection: protectStates with F=0 yields only the all-alive
// state (no failure protection).
func TestFFCZeroProtection(t *testing.T) {
	states := protectStates(3, 0)
	if len(states) != 1 || len(states[0]) != 0 {
		t.Fatalf("protectStates(3,0) = %v", states)
	}
}

func TestProtectStatesCount(t *testing.T) {
	// C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11.
	if got := len(protectStates(4, 2)); got != 11 {
		t.Fatalf("states = %d, want 11", got)
	}
	// All states unique and within size bound.
	seen := map[string]bool{}
	for _, st := range protectStates(5, 2) {
		if len(st) > 2 {
			t.Fatalf("state %v exceeds F", st)
		}
		k := ""
		for _, e := range st {
			k += string(rune('a' + e))
		}
		if seen[k] {
			t.Fatalf("duplicate state %v", st)
		}
		seen[k] = true
	}
}

// TestFFCThrottlesUnprotectedStates: in states beyond the protection
// level the emitted routing must still be capacity-feasible.
func TestFFCThrottlesUnprotectedStates(t *testing.T) {
	tp := topo.MustLoad("Sprint")
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	for i := range inst.Pairs {
		inst.Demand[0][i] = 8
	}
	probs := failure.WeibullProbs(tp.G, 3, failure.WeibullParams{Median: 0.01})
	inst.LinkProbs = probs
	inst.Scenarios = failure.Enumerate(probs, 1e-4)
	s := &Scheme{}
	r, err := s.Route(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckCapacity(inst, 1e-5); err != nil {
		t.Fatalf("FFC emitted an infeasible routing: %v", err)
	}
}

// TestFFCVsFlexile: Flexile beats FFC's percentile loss on the triangle
// (0 vs 0.5) — the paper's §2/§3 argument quantified.
func TestFFCVsFlexile(t *testing.T) {
	inst := triangleInstance()
	ffcRun, err := (&Scheme{}).Route(inst)
	if err != nil {
		t.Fatal(err)
	}
	ffcLoss := eval.PercLoss(inst, ffcRun.LossMatrix(inst), 0)
	if ffcLoss < 0.5-1e-6 {
		t.Fatalf("FFC PercLoss = %v, expected ≥ 0.5", ffcLoss)
	}
}

// guaranteedStates reports, for the instance's scenarios, which are within
// the protection level (≤ F failed links) — in those, every granted byte
// is deliverable by construction.
func guaranteedStates(s *Scheme, inst *te.Instance) []int {
	var out []int
	for q, scen := range inst.Scenarios {
		if len(scen.Failed) <= s.f() {
			out = append(out, q)
		}
	}
	return out
}
