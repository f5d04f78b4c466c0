package scheme_test

import (
	"math"
	"testing"

	"flexile/internal/eval"
	"flexile/internal/failure"
	"flexile/internal/graph"
	"flexile/internal/scheme"
	"flexile/internal/scheme/cvarflow"
	"flexile/internal/scheme/flexile"
	"flexile/internal/scheme/ip"
	"flexile/internal/scheme/scenbest"
	"flexile/internal/scheme/swan"
	"flexile/internal/scheme/teavar"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// fig1Instance is the paper's motivating example (§3): the triangle with
// unit capacities, flows A→B and A→C of demand 1, link failure probability
// 0.01, and a 99% availability target.
func fig1Instance() *te.Instance {
	tp := topo.Triangle()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	inst.Demand[0][0] = 1 // A→B
	inst.Demand[0][1] = 1 // A→C
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0) // all 8 states
	return inst
}

func percLoss(t *testing.T, s scheme.Scheme, inst *te.Instance) float64 {
	t.Helper()
	r, err := s.Route(inst)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if err := r.CheckCapacity(inst, 1e-5); err != nil {
		t.Fatalf("%s produced an infeasible routing: %v", s.Name(), err)
	}
	return eval.PercLoss(inst, r.LossMatrix(inst), 0)
}

// TestFig1ScenBest: ScenBest can only support 0.5 units 99% of the time
// (paper Fig. 2).
func TestFig1ScenBest(t *testing.T) {
	inst := fig1Instance()
	got := percLoss(t, &scenbest.Scheme{}, inst)
	if math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("ScenBest PercLoss = %v, want 0.5", got)
	}
}

// TestFig1Teavar: Teavar cannot do better than ~50% loss at the 99th
// percentile (Proposition 2 lower-bounds it by 48.51%).
func TestFig1Teavar(t *testing.T) {
	inst := fig1Instance()
	got := percLoss(t, &teavar.Scheme{}, inst)
	if got < 0.4851-1e-6 {
		t.Fatalf("Teavar PercLoss = %v, Proposition 2 says ≥ 0.4851", got)
	}
}

// TestFig1CvarVariants: Proposition 2 also covers the flow-level CVaR
// generalizations — both stay at ≥ 48.51% loss.
func TestFig1CvarVariants(t *testing.T) {
	inst := fig1Instance()
	for _, s := range []scheme.Scheme{&cvarflow.St{}, &cvarflow.Ad{}} {
		got := percLoss(t, s, inst)
		if got < 0.4851-1e-6 {
			t.Fatalf("%s PercLoss = %v, Proposition 2 says ≥ 0.4851", s.Name(), got)
		}
	}
}

// TestFig1Flexile: Flexile meets the full bandwidth objective — zero loss
// at the 99th percentile (§3, Fig. 4).
func TestFig1Flexile(t *testing.T) {
	inst := fig1Instance()
	fx := &flexile.Scheme{}
	got := percLoss(t, fx, inst)
	if got > 1e-6 {
		t.Fatalf("Flexile PercLoss = %v, want 0", got)
	}
	// The critical sets must be a Fig.-4-style solution (the symmetric
	// optimum that routes A→B over A−C−B in the "A−B down" scenario is
	// equally valid): every flow's critical scenarios keep it connected,
	// cover probability β, and give it zero loss.
	off := fx.Offline
	for _, f := range []int{inst.FlowID(0, 0), inst.FlowID(0, 1)} {
		k, i := inst.FlowOf(f)
		mass := 0.0
		for q, s := range inst.Scenarios {
			if !off.Critical.Get(f, q) {
				continue
			}
			mass += s.Prob
			if !inst.FlowConnected(k, i, s) {
				t.Fatalf("scenario %d critical for flow %d although disconnected", q, f)
			}
			if off.SubLosses[f][q] > 1e-6 {
				t.Fatalf("flow %d loses %v in its critical scenario %d", f, off.SubLosses[f][q], q)
			}
		}
		if mass < 0.99-1e-9 {
			t.Fatalf("critical mass for flow %d = %v < 0.99", f, mass)
		}
	}
}

// TestFig1IP: the direct MIP also achieves zero, and Flexile matches it.
func TestFig1IP(t *testing.T) {
	inst := fig1Instance()
	got := percLoss(t, &ip.Scheme{}, inst)
	if got > 1e-6 {
		t.Fatalf("IP PercLoss = %v, want 0", got)
	}
}

// TestProposition1: at the warm start (iteration 1, before any master
// step), Flexile's guarantee is already no worse than ScenBest's or
// Teavar's.
func TestProposition1(t *testing.T) {
	inst := fig1Instance()
	fx := &flexile.Scheme{Opt: flexile.Options{MaxIterations: 1}}
	if _, err := fx.Route(inst); err != nil {
		t.Fatal(err)
	}
	iter1 := fx.Offline.IterPercLoss[0][0]

	sb := percLoss(t, &scenbest.Scheme{}, inst)
	tv := percLoss(t, &teavar.Scheme{}, inst)
	if iter1 > sb+1e-6 {
		t.Fatalf("warm start PercLoss %v worse than ScenBest %v", iter1, sb)
	}
	if iter1 > tv+1e-6 {
		t.Fatalf("warm start PercLoss %v worse than Teavar %v", iter1, tv)
	}
}

// TestFig16NoBCLink: without the B−C link, ScenBest does meet the flow
// objectives (appendix) — adding a link must never make Flexile worse,
// while it does degrade ScenBest (TestFig1ScenBest above).
func TestFig16NoBCLink(t *testing.T) {
	tp := topo.TriangleNoBC()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	inst.Demand[0][0] = 1
	inst.Demand[0][1] = 1
	inst.LinkProbs = []float64{0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
	got := percLoss(t, &scenbest.Scheme{}, inst)
	if got > 1e-6 {
		t.Fatalf("ScenBest PercLoss on Fig. 16 topology = %v, want 0", got)
	}
	fx := percLoss(t, &flexile.Scheme{}, inst)
	if fx > 1e-6 {
		t.Fatalf("Flexile PercLoss on Fig. 16 topology = %v, want 0", fx)
	}
}

// TestFig17MaxMinUnfairness reproduces the appendix example: fairness in
// each scenario is unfair across scenarios. Flow A→B has only the direct
// link; flow A→C has two paths. Per-scenario max-min fails A→B's 99%
// target; Flexile meets both.
func TestFig17MaxMinUnfairness(t *testing.T) {
	tp := topo.Triangle()
	// Custom tunnel policy emulating the appendix's directed topology:
	// pair (A,B) may only use the direct link; (A,C) gets both paths.
	policy := func(g *graph.Graph, u, v int) []graph.Path {
		paths := g.KShortestPaths(u, v, 3)
		if u == 0 && v == 1 { // A-B: direct only
			var out []graph.Path
			for _, p := range paths {
				if p.Len() == 1 {
					out = append(out, p)
				}
			}
			return out
		}
		return paths
	}
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: policy},
	})
	inst.Demand[0][0] = 1 // A→B
	inst.Demand[0][1] = 1 // A→C
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)

	sb := &scenbest.Scheme{}
	r, err := sb.Route(inst)
	if err != nil {
		t.Fatal(err)
	}
	losses := r.LossMatrix(inst)
	probs := make([]float64, len(inst.Scenarios))
	for q, s := range inst.Scenarios {
		probs[q] = s.Prob
	}
	fAB := inst.FlowID(0, 0)
	fAC := inst.FlowID(0, 1)
	lossAB := eval.FlowLoss(losses[fAB], probs, 0.99)
	lossAC := eval.FlowLoss(losses[fAC], probs, 0.99)
	if lossAB < 0.5-1e-6 {
		t.Fatalf("max-min should leave A→B at ≥0.5 loss at the 99th pct, got %v", lossAB)
	}
	if lossAC > 1e-6 {
		t.Fatalf("max-min meets A→C's target, got %v", lossAC)
	}
	// Flexile prioritizes A→B in its critical scenarios and meets both.
	if got := percLoss(t, &flexile.Scheme{}, inst); got > 1e-6 {
		t.Fatalf("Flexile PercLoss = %v, want 0", got)
	}
}

// TestSWANThroughputUnfairness reproduces the §6.2 A-B-C example: max
// throughput starves the long flow entirely.
func TestSWANThroughputUnfairness(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	tp := &topo.Topology{Name: "path", G: g}
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.9, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	// Pairs: (0,1), (0,2), (1,2); demand 1 each.
	for i := range inst.Pairs {
		inst.Demand[0][i] = 1
	}
	inst.Scenarios = []failure.Scenario{{Prob: 1}}
	r, err := (&swan.Throughput{}).Route(inst)
	if err != nil {
		t.Fatal(err)
	}
	losses := r.LossMatrix(inst)
	// A-B and B-C are fully served; A-C gets nothing.
	var acPair int
	for i, pr := range inst.Pairs {
		if pr[0] == 0 && pr[1] == 2 {
			acPair = i
		}
	}
	if l := losses[inst.FlowID(0, acPair)][0]; math.Abs(l-1) > 1e-6 {
		t.Fatalf("A-C loss = %v, want 1 (starved by throughput maximization)", l)
	}
	tot := 0.0
	for f := range losses {
		tot += 1 - losses[f][0]
	}
	if math.Abs(tot-2) > 1e-6 {
		t.Fatalf("total throughput = %v, want 2", tot)
	}
}

// TestTwoClassSchemes runs SWAN variants and Flexile on a two-class
// triangle and checks the priority invariant: high-priority traffic never
// does worse than low-priority.
func TestTwoClassSchemes(t *testing.T) {
	tp := topo.Triangle()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "high", Beta: 0.99, Weight: 1000, Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Beta: 0.99, Weight: 1, Tunnels: tunnels.LowPriority(3, 3)},
	})
	for i := range inst.Pairs {
		inst.Demand[0][i] = 0.3
		inst.Demand[1][i] = 0.6
	}
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
	for _, s := range []scheme.Scheme{&swan.Maxmin{}, &swan.Throughput{}, &scenbest.Scheme{DisplayName: "ScenBest-Multi"}, &flexile.Scheme{}} {
		r, err := s.Route(inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := r.CheckCapacity(inst, 1e-5); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		losses := r.LossMatrix(inst)
		hi := eval.PercLoss(inst, losses, 0)
		lo := eval.PercLoss(inst, losses, 1)
		if hi > lo+1e-6 {
			t.Fatalf("%s: high-priority PercLoss %v worse than low %v", s.Name(), hi, lo)
		}
	}
}

// TestFlexileMatchesIPSmall cross-checks decomposition vs the direct MIP on
// a random 7-node instance (the direct MIP replicates the routing for every
// scenario, so it only scales to small networks — which is the paper's
// point in Fig. 15).
func TestFlexileMatchesIPSmall(t *testing.T) {
	g := topo.Generate(7, 11, 42)
	tp := &topo.Topology{Name: "small7", G: g}
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	for i := range inst.Pairs {
		inst.Demand[0][i] = 25 // capacity is 100 per link
	}
	probs := failure.WeibullProbs(tp.G, 5, failure.WeibullParams{Median: 0.004})
	inst.LinkProbs = probs
	inst.Scenarios = failure.Enumerate(probs, 2e-3)
	inst.Classes[0].Beta = math.Min(0.999, inst.AllFlowsConnectedMass()-1e-9)

	fx := &flexile.Scheme{}
	fxLoss := percLoss(t, fx, inst)

	ipS := &ip.Scheme{MaxNodes: 200}
	ipLoss := percLoss(t, ipS, inst)

	// Flexile must come close to the IP optimum (the IP may itself be an
	// incumbent rather than a proven optimum, so allow slack both ways).
	if fxLoss > ipLoss+0.05 {
		t.Fatalf("Flexile PercLoss %v much worse than IP %v", fxLoss, ipLoss)
	}
}
