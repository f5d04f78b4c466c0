package te

import (
	"math"
	"testing"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

// triangleInstance is the paper's Fig. 1 setup: flows A→B and A→C, demand 1
// each, unit capacities, single class.
func triangleInstance() *Instance {
	tp := topo.Triangle()
	inst := NewInstance(tp, []Class{{
		Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3),
	}})
	// Pairs are (A,B)=0, (A,C)=1, (B,C)=2.
	inst.Demand[0][0] = 1
	inst.Demand[0][1] = 1
	probs := []float64{0.01, 0.01, 0.01}
	inst.LinkProbs = probs
	inst.Scenarios = failure.Enumerate(probs, 0)
	return inst
}

func TestInstanceShape(t *testing.T) {
	inst := triangleInstance()
	if len(inst.Pairs) != 3 {
		t.Fatalf("pairs = %d", len(inst.Pairs))
	}
	if inst.NumFlows() != 3 {
		t.Fatalf("flows = %d", inst.NumFlows())
	}
	k, i := inst.FlowOf(inst.FlowID(0, 2))
	if k != 0 || i != 2 {
		t.Fatalf("FlowOf(FlowID) = %d,%d", k, i)
	}
	// A-B pair has two tunnels in the triangle (direct and via C).
	if got := len(inst.Tunnels[0][0]); got != 2 {
		t.Fatalf("A-B tunnels = %d, want 2", got)
	}
}

func TestFlowConnected(t *testing.T) {
	inst := triangleInstance()
	all := failure.Scenario{Prob: 1}
	if !inst.FlowConnected(0, 0, all) {
		t.Fatal("A-B connected with everything alive")
	}
	// Fail A-B (e0) and B-C (e2): A-B pair has no live tunnel.
	s := failure.Scenario{Failed: []int{0, 2}}
	if inst.FlowConnected(0, 0, s) {
		t.Fatal("A-B should be disconnected when e0 and e2 fail")
	}
	if !inst.FlowConnected(0, 1, s) {
		t.Fatal("A-C survives on the direct link")
	}
}

func TestRoutingLosses(t *testing.T) {
	inst := triangleInstance()
	r := NewRouting(inst)
	// In scenario 0 (all alive), give A-B 0.7 on its direct tunnel.
	// Identify the direct tunnel (length 1).
	dt := -1
	for ti, p := range inst.Tunnels[0][0] {
		if p.Len() == 1 {
			dt = ti
		}
	}
	r.X[0][0][0][dt] = 0.7
	if got := r.Delivered(inst, 0, 0, 0); !approx(got, 0.7) {
		t.Fatalf("delivered = %v", got)
	}
	if got := r.Loss(inst, 0, 0, 0); !approx(got, 0.3) {
		t.Fatalf("loss = %v", got)
	}
	// Allocation on a dead tunnel must not count. Find the scenario where
	// only e0 (A-B) fails.
	qFail := -1
	for q, s := range inst.Scenarios {
		if len(s.Failed) == 1 && s.Failed[0] == 0 {
			qFail = q
		}
	}
	r.X[qFail][0][0][dt] = 0.9
	if got := r.Delivered(inst, 0, 0, qFail); got != 0 {
		t.Fatalf("dead tunnel delivered %v", got)
	}
	if got := r.Loss(inst, 0, 0, qFail); !approx(got, 1) {
		t.Fatalf("loss with dead tunnel = %v", got)
	}
	// Over-allocation is capped at demand.
	r.X[0][0][0][dt] = 5
	if got := r.Delivered(inst, 0, 0, 0); !approx(got, 1) {
		t.Fatalf("delivered should cap at demand, got %v", got)
	}
}

func TestCheckCapacity(t *testing.T) {
	inst := triangleInstance()
	r := NewRouting(inst)
	dt := directTunnel(inst, 0, 0)
	r.X[0][0][0][dt] = 0.5
	if err := r.CheckCapacity(inst, 1e-9); err != nil {
		t.Fatalf("feasible routing flagged: %v", err)
	}
	r.X[0][0][0][dt] = 1.5 // over unit capacity
	if err := r.CheckCapacity(inst, 1e-9); err == nil {
		t.Fatal("oversubscription not detected")
	}
	// Traffic on a failed link must be flagged.
	r.X[0][0][0][dt] = 0.5
	qFail := scenarioWithFailed(inst, 0)
	r.X[qFail][0][0][dt] = 0.1
	if err := r.CheckCapacity(inst, 1e-9); err == nil {
		t.Fatal("traffic on failed link not detected")
	}
}

func directTunnel(inst *Instance, k, i int) int {
	for ti, p := range inst.Tunnels[k][i] {
		if p.Len() == 1 {
			return ti
		}
	}
	return -1
}

func scenarioWithFailed(inst *Instance, edge int) int {
	for q, s := range inst.Scenarios {
		if len(s.Failed) == 1 && s.Failed[0] == edge {
			return q
		}
	}
	return -1
}

func TestMaxConcurrentScaleTriangle(t *testing.T) {
	inst := triangleInstance()
	// All alive: both flows can be fully served (z ≥ 1); in fact z = 1.5
	// (direct link + half shared through the third path? direct 1 + via-C
	// limited by B-C shared between both flows → z = 1.5).
	z, _, _, err := MaxConcurrentScale(inst, failure.Scenario{Prob: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if z < 1 {
		t.Fatalf("all-alive z = %v, want ≥ 1", z)
	}
	// Only e0 (A-B) failed: flow A-B has only the 2-hop path A-C-B; flow
	// A-C has its direct link. A-C link is shared: x_ACB + x_AC ≤ 1 with
	// x_ACB ≥ z, x_AC ≥ z → z = 0.5.
	qFail := scenarioWithFailed(inst, 0)
	z, _, _, err = MaxConcurrentScale(inst, inst.Scenarios[qFail], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(z, 0.5) {
		t.Fatalf("z = %v, want 0.5 (paper Fig. 2)", z)
	}
}

func TestMaxMinTriangleAllAlive(t *testing.T) {
	inst := triangleInstance()
	res, err := MaxMin(inst, failure.Scenario{Prob: 1}, MaxMinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Both demanded flows fully served when everything is alive.
	if !approx(res.Frac[inst.FlowID(0, 0)], 1) || !approx(res.Frac[inst.FlowID(0, 1)], 1) {
		t.Fatalf("fracs = %v", res.Frac)
	}
	// Zero-demand flow gets zero.
	if res.Frac[inst.FlowID(0, 2)] != 0 {
		t.Fatalf("zero-demand flow got %v", res.Frac[inst.FlowID(0, 2)])
	}
}

func TestMaxMinTriangleFailureFair(t *testing.T) {
	inst := triangleInstance()
	qFail := scenarioWithFailed(inst, 0) // A-B down
	res, err := MaxMin(inst, inst.Scenarios[qFail], MaxMinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 2: fair share gives each flow 0.5.
	got0 := res.Frac[inst.FlowID(0, 0)]
	got1 := res.Frac[inst.FlowID(0, 1)]
	if !approx(got0, 0.5) || !approx(got1, 0.5) {
		t.Fatalf("max-min fracs = %v, %v; want 0.5, 0.5", got0, got1)
	}
}

func TestMaxMinCriticalPriority(t *testing.T) {
	inst := triangleInstance()
	qFail := scenarioWithFailed(inst, 0) // A-B down
	// Flexile marks A-C critical here (its direct link is alive): A-C must
	// get its full demand; A-B picks up the residual.
	minFrac := make([]float64, inst.NumFlows())
	minFrac[inst.FlowID(0, 1)] = 1.0
	res, err := MaxMin(inst, inst.Scenarios[qFail], MaxMinOptions{MinFrac: minFrac})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Frac[inst.FlowID(0, 1)], 1) {
		t.Fatalf("critical A-C got %v, want 1", res.Frac[inst.FlowID(0, 1)])
	}
	// A-B's only path shares A-C's link: it gets nothing once A-C is full.
	if res.Frac[inst.FlowID(0, 0)] > 1e-6 {
		t.Fatalf("A-B got %v, want 0", res.Frac[inst.FlowID(0, 0)])
	}
	// The allocation must be capacity-feasible.
	checkResultFeasible(t, inst, inst.Scenarios[qFail], res)
}

func checkResultFeasible(t *testing.T, inst *Instance, scen failure.Scenario, res *MaxMinResult) {
	t.Helper()
	g := inst.Topo.G
	use := make([]float64, g.NumEdges())
	for k := range inst.Classes {
		for i := range inst.Pairs {
			for ti, x := range res.X[k][i] {
				if x <= 0 {
					continue
				}
				if !inst.TunnelAlive(k, i, ti, scen) && x > 1e-7 {
					t.Fatalf("allocation %v on dead tunnel", x)
				}
				for _, e := range inst.Tunnels[k][i][ti].Edges {
					use[e] += x
				}
			}
		}
	}
	for e := range use {
		cap := g.Edge(e).Capacity
		if scen.IsFailed(e) {
			cap = 0
		}
		if use[e] > cap+1e-6 {
			t.Fatalf("edge %d used %v over cap %v", e, use[e], cap)
		}
	}
}

// Two-class priority: the high class takes the bottleneck first.
func TestMaxMinTwoClassPriority(t *testing.T) {
	tp := topo.TriangleNoBC() // A-B and A-C only
	inst := NewInstance(tp, []Class{
		{Name: "high", Beta: 0.999, Weight: 1000, Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Beta: 0.99, Weight: 1, Tunnels: tunnels.LowPriority(3, 3)},
	})
	// Both classes want the full A-B link (capacity 1).
	inst.Demand[0][0] = 1 // high A-B
	inst.Demand[1][0] = 1 // low A-B
	inst.Scenarios = []failure.Scenario{{Prob: 1}}
	res, err := MaxMin(inst, inst.Scenarios[0], MaxMinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Frac[inst.FlowID(0, 0)], 1) {
		t.Fatalf("high class got %v, want 1", res.Frac[inst.FlowID(0, 0)])
	}
	if res.Frac[inst.FlowID(1, 0)] > 1e-6 {
		t.Fatalf("low class got %v, want 0", res.Frac[inst.FlowID(1, 0)])
	}
}

// RateDomain vs FractionDomain: with unequal demands sharing one link,
// rate-domain max-min equalizes rates; fraction-domain equalizes fractions.
func TestMaxMinDomains(t *testing.T) {
	tp := topo.TriangleNoBC()
	inst := NewInstance(tp, []Class{{Name: "s", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)}})
	// Both pairs A-B and A-C... they use disjoint links. Need contention:
	// use pair A-B with demand 2 and pair B-C (via A) with demand 1? B-C's
	// only path is B-A-C which shares A-B.
	inst.Demand[0][0] = 2 // A-B
	inst.Demand[0][2] = 1 // B-C via B-A-C
	inst.Scenarios = []failure.Scenario{{Prob: 1}}
	scen := inst.Scenarios[0]

	rate, err := MaxMin(inst, scen, MaxMinOptions{Domain: RateDomain})
	if err != nil {
		t.Fatal(err)
	}
	// Link A-B capacity 1 shared: rate-domain gives each 0.5 →
	// fractions 0.25 and 0.5.
	if !approx(rate.Frac[inst.FlowID(0, 0)]*2, 0.5) || !approx(rate.Frac[inst.FlowID(0, 2)], 0.5) {
		t.Fatalf("rate-domain fracs: %v", rate.Frac)
	}

	frac, err := MaxMin(inst, scen, MaxMinOptions{Domain: FractionDomain})
	if err != nil {
		t.Fatal(err)
	}
	// Fraction-domain equalizes fractions: f·2 + f·1 ≤ 1 → f = 1/3.
	if !approx(frac.Frac[inst.FlowID(0, 0)], 1.0/3) || !approx(frac.Frac[inst.FlowID(0, 2)], 1.0/3) {
		t.Fatalf("fraction-domain fracs: %v", frac.Frac)
	}
}

func TestCloneAndScale(t *testing.T) {
	inst := triangleInstance()
	c := inst.Clone()
	c.ScaleDemands(2)
	if !approx(c.Demand[0][0], 2) || !approx(inst.Demand[0][0], 1) {
		t.Fatalf("clone aliasing: %v %v", c.Demand[0][0], inst.Demand[0][0])
	}
	c.ScaleClassDemands(0, 0.5)
	if !approx(c.Demand[0][0], 1) {
		t.Fatalf("class scale: %v", c.Demand[0][0])
	}
	if !approx(inst.TotalDemand(), 2) {
		t.Fatalf("total demand %v", inst.TotalDemand())
	}
}

func TestFlowConnMassAndDesign(t *testing.T) {
	inst := triangleInstance()
	mass := inst.FlowConnMass()
	// Flow A-B is disconnected only when e0 and (e1 or e2) fail:
	// p = 0.01·(1−0.99²).
	want := 1 - 0.01*(1-0.99*0.99)
	if !approx(mass[inst.FlowID(0, 0)], want) {
		t.Fatalf("conn mass %v, want %v", mass[inst.FlowID(0, 0)], want)
	}
	all := inst.AllFlowsConnectedMass()
	if all > mass[0]+1e-12 {
		t.Fatal("all-flows mass cannot exceed a single flow's")
	}
}

func lpEntry(col int) lp.Entry { return lp.Entry{Col: col, Coef: 1} }

func TestAllocFixedUseClamp(t *testing.T) {
	inst := triangleInstance()
	// fixedUse beyond capacity clamps the row to zero rather than going
	// negative.
	fixed := []float64{5, 0, 0}
	a := NewAlloc(inst, failure.Scenario{Prob: 1}, nil, fixed)
	es := a.FlowEntries(0, 0)
	a.LP.AddGE("want", 0.1, es...)
	// Flow (A,B) still has the 2-hop path (edges 1,2) with capacity 1.
	sol, err := a.LP.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status.String() != "optimal" {
		t.Fatalf("status %v", sol.Status)
	}
	// But edge 0 itself must admit nothing: force 0.1 through the direct
	// tunnel only and expect infeasibility.
	b := NewAlloc(inst, failure.Scenario{Prob: 1}, nil, fixed)
	dt := directTunnel(inst, 0, 0)
	if c := b.XVar(0, 0, dt); c >= 0 {
		b.LP.AddGE("direct", 0.1, lpEntry(c))
		sol, err = b.LP.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status.String() != "infeasible" {
			t.Fatalf("exhausted edge accepted traffic: %v", sol.Status)
		}
	}
}

// TestRoutingPolytope checks the three builders' contract on the triangle:
// columns in (class, pair, tunnel) order with admit's bounds, one capacity
// row per crossed edge in edge order, and a read-back in which a dead
// tunnel carries nothing, from a static and from an adaptive column set.
func TestRoutingPolytope(t *testing.T) {
	inst := triangleInstance()
	p := lp.NewProblem()
	// Pair 2 (B,C) has no demand and gets no columns.
	cols := TunnelCols(p, inst, func(k, i, t int) (float64, bool) {
		return float64(1 + i), inst.Demand[k][i] > 0
	})
	next := 0
	for i := range inst.Pairs {
		for tn, c := range cols[0][i] {
			want := -1
			if i < 2 {
				want, next = next, next+1
			}
			if c != want {
				t.Fatalf("column of tunnel (0,%d,%d) = %d, want %d", i, tn, c, want)
			}
			if c >= 0 && p.ColUB(c) != float64(1+i) {
				t.Fatalf("column %d ub = %v, want %v", c, p.ColUB(c), float64(1+i))
			}
		}
	}
	// A view holding only A-B's direct tunnel crosses edge 0 alone.
	dt := directTunnel(inst, 0, 0)
	direct := [][][]int{make([][]int, len(inst.Pairs))}
	for i := range direct[0] {
		direct[0][i] = make([]int, len(cols[0][i]))
		for tn := range direct[0][i] {
			direct[0][i][tn] = -1
		}
	}
	direct[0][0][dt] = cols[0][0][dt]
	if rows := CapacityRows(p, inst, direct, inst.Capacity); rows[0] != 0 || rows[1] != -1 || rows[2] != -1 {
		t.Fatalf("direct-tunnel capacity rows = %v, want [0 -1 -1]", rows)
	}
	if rows := CapacityRows(p, inst, cols, inst.Capacity); rows[0] != 1 || rows[1] != 2 || rows[2] != 3 {
		t.Fatalf("capacity rows = %v, want [1 2 3]", rows)
	}

	x := make([]float64, p.NumCols())
	for c := range x {
		x[c] = float64(c + 1)
	}
	qFail := scenarioWithFailed(inst, 0)
	static := RoutingOf(inst, x, [][][][]int{cols})
	adaptive := make([][][][]int, len(inst.Scenarios))
	for q := range adaptive {
		adaptive[q] = direct
	}
	adaptive[qFail] = cols
	perScen := RoutingOf(inst, x, adaptive)
	for q, scen := range inst.Scenarios {
		for i := range inst.Pairs {
			for tn, c := range cols[0][i] {
				want := 0.0
				if c >= 0 && inst.TunnelAlive(0, i, tn, scen) {
					want = x[c]
				}
				if got := static.X[q][0][i][tn]; got != want {
					t.Errorf("static: scenario %d tunnel (%d,%d) carries %v, want %v", q, i, tn, got, want)
				}
				if q != qFail && (i != 0 || tn != dt) {
					want = 0 // outside the direct view
				}
				if got := perScen.X[q][0][i][tn]; got != want {
					t.Errorf("adaptive: scenario %d tunnel (%d,%d) carries %v, want %v", q, i, tn, got, want)
				}
			}
		}
	}
	if static.X[qFail][0][0][dt] != 0 {
		t.Fatal("the direct tunnel carries traffic over its failed link")
	}
}
