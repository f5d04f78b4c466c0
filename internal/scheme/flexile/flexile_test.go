package flexile

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

func TestCriticalSetBasics(t *testing.T) {
	cs := NewCriticalSet(5, 7)
	if cs.Flows() != 5 || cs.Scenarios() != 7 {
		t.Fatal("dimensions wrong")
	}
	cs.Set(2, 3, true)
	cs.Set(4, 6, true)
	if !cs.Get(2, 3) || !cs.Get(4, 6) || cs.Get(0, 0) || cs.Get(3, 2) {
		t.Fatal("get/set wrong")
	}
	cs.Set(2, 3, false)
	if cs.Get(2, 3) {
		t.Fatal("clear failed")
	}
}

func TestCriticalSetCloneEqual(t *testing.T) {
	a := NewCriticalSet(3, 3)
	a.Set(0, 0, true)
	a.Set(2, 2, true)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone must equal original")
	}
	b.Set(1, 1, true)
	if a.Equal(b) {
		t.Fatal("a clone with one bit flipped must differ")
	}
}

// Property: Set/Get round-trips for arbitrary positions.
func TestCriticalSetQuick(t *testing.T) {
	f := func(rows, cols uint8, picks []uint16) bool {
		nr, nc := int(rows%40)+1, int(cols%40)+1
		cs := NewCriticalSet(nr, nc)
		ref := map[[2]int]bool{}
		for _, p := range picks {
			r, c := int(p)%nr, (int(p)/nr)%nc
			v := p%3 != 0
			cs.Set(r, c, v)
			ref[[2]int{r, c}] = v
		}
		for k, v := range ref {
			if cs.Get(k[0], k[1]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

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

// baseCaps is the topology's capacity vector, the subproblem's capacities
// when nothing is claimed or added.
func baseCaps(inst *te.Instance) []float64 {
	g := inst.Topo.G
	caps := make([]float64, g.NumEdges())
	for e := range caps {
		caps[e] = g.Edge(e).Capacity
	}
	return caps
}

// connectedCritical is the decomposition's starting critical column for
// scen: every demanded flow the scenario leaves connected.
func connectedCritical(inst *te.Instance, scen failure.Scenario) func(f int) bool {
	return func(f int) bool {
		k, i := inst.FlowOf(f)
		return inst.Demand[k][i] > 0 && inst.FlowConnected(k, i, scen)
	}
}

// TestSubproblemPerScenarioOptimum: with all connected flows critical, the
// subproblem value equals the per-scenario optimum (max-min worst loss).
func TestSubproblemPerScenarioOptimum(t *testing.T) {
	inst := triangleInstance()
	sp := newSubproblem(inst, nil)
	for q, scen := range inst.Scenarios {
		alive := scen.AliveMask(3)
		crit := connectedCritical(inst, scen)
		sol, err := sp.solve(context.Background(), lp.Options{}, q, crit, alive, nil, baseCaps(inst))
		if err != nil {
			t.Fatal(err)
		}
		z, _, _, err := te.MaxConcurrentScale(inst, scen, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Max(0, 1-math.Min(1, z))
		if math.Abs(sol.optval-want) > 1e-6 {
			t.Fatalf("scenario %d: subproblem %v vs ScenBest %v", q, sol.optval, want)
		}
	}
}

// TestSubproblemCutSelfConsistency: the cut evaluated at its native
// scenario and critical set reproduces the optimal value.
func TestSubproblemCutSelfConsistency(t *testing.T) {
	inst := triangleInstance()
	sp := newSubproblem(inst, nil)
	for q, scen := range inst.Scenarios {
		alive := scen.AliveMask(3)
		crit := connectedCritical(inst, scen)
		sol, err := sp.solve(context.Background(), lp.Options{}, q, crit, alive, nil, baseCaps(inst))
		if err != nil {
			t.Fatal(err)
		}
		got := sol.cut.value(crit, alive)
		if math.Abs(got-sol.optval) > 1e-6 {
			t.Fatalf("scenario %d: cut value %v vs optval %v", q, got, sol.optval)
		}
	}
}

// TestSubproblemCutIsLowerBound: a cut transplanted to another critical set
// (same scenario) never exceeds the true optimum there — weak duality.
func TestSubproblemCutIsLowerBound(t *testing.T) {
	inst := triangleInstance()
	sp := newSubproblem(inst, nil)
	// Native solve with both flows critical in the "A-B failed" scenario.
	qFail := -1
	for q, s := range inst.Scenarios {
		if len(s.Failed) == 1 && s.Failed[0] == 0 {
			qFail = q
		}
	}
	scen := inst.Scenarios[qFail]
	alive := scen.AliveMask(3)
	both := func(f int) bool { return f < 2 }
	sol, err := sp.solve(context.Background(), lp.Options{}, qFail, both, alive, nil, baseCaps(inst))
	if err != nil {
		t.Fatal(err)
	}
	// Transplant the cut to the critical set {flow 1 only}.
	only1 := func(f int) bool { return f == 1 }
	bound := sol.cut.value(only1, alive)
	truth, err := sp.solve(context.Background(), lp.Options{}, qFail, only1, alive, nil, baseCaps(inst))
	if err != nil {
		t.Fatal(err)
	}
	if bound > truth.optval+1e-6 {
		t.Fatalf("cut %v exceeds optimum %v (weak duality broken)", bound, truth.optval)
	}
}

// TestOfflineBatchOracleIdentity: the compiled solver every subproblem
// solve goes through answers bit for bit what solving the subproblem's own
// lp.Problem directly answers — same objective, pivot count, primal and
// duals — on every Sprint scenario, plain, under a γ loss bound and with
// capacity claimed by a higher class. (lp's
// TestPropertyBatchBitIdenticalToDirect is the solver-level oracle; this
// pins the seam the decomposition uses.)
func TestOfflineBatchOracleIdentity(t *testing.T) {
	inst := sprintInstance(t)
	g := inst.Topo.G
	ctx := context.Background()
	sp := newSubproblem(inst, nil)
	base := baseCaps(inst)
	residual := make([]float64, g.NumEdges())
	for e := range residual {
		residual[e] = base[e] - 0.1*g.Edge(e).Capacity
	}
	for q, scen := range inst.Scenarios {
		crit := connectedCritical(inst, scen)
		zScale, _, _, err := te.MaxConcurrentScale(inst, scen, nil)
		if err != nil {
			t.Fatal(err)
		}
		gammaUB := make([]float64, inst.NumFlows())
		for f := range gammaUB {
			gammaUB[f] = 1
			if crit(f) {
				gammaUB[f] = math.Min(1, 0.05+math.Max(0, 1-math.Min(1, zScale)))
			}
		}
		for _, c := range []struct {
			name         string
			lossUB, caps []float64
		}{{"plain", nil, base}, {"gamma", gammaUB, base}, {"capUse", nil, residual}} {
			sub, err := sp.solve(ctx, lp.Options{}, q, crit, scen.AliveMask(g.NumEdges()), c.lossUB, c.caps)
			if err != nil {
				t.Fatalf("scenario %d %s: %v", q, c.name, err)
			}
			// solve left sp.p at this case's bounds.
			direct, err := sp.p.SolveCtx(ctx, lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			batched, err := sp.solver.SolveCtx(ctx, lp.Variant{}, lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if batched.Objective != sub.optval {
				t.Fatalf("scenario %d %s: re-solve objective %v, solve %v", q, c.name, batched.Objective, sub.optval)
			}
			if batched.Objective != direct.Objective || batched.Iterations != direct.Iterations ||
				!reflect.DeepEqual(batched.X, direct.X) || !reflect.DeepEqual(batched.RowDual, direct.RowDual) {
				t.Fatalf("scenario %d %s: compiled solve differs from direct: objective %v vs %v, pivots %d vs %d",
					q, c.name, batched.Objective, direct.Objective, batched.Iterations, direct.Iterations)
			}
		}
	}
}

// TestOfflineConvergesTriangle: the decomposition achieves PercLoss 0 and
// per-iteration penalties never increase for the best-so-far tracking.
func TestOfflineConvergesTriangle(t *testing.T) {
	inst := triangleInstance()
	off, err := Offline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if off.PercLoss[0] > 1e-9 {
		t.Fatalf("PercLoss = %v, want 0", off.PercLoss[0])
	}
	if off.Iterations < 1 || off.Iterations > 5 {
		t.Fatalf("iterations = %d", off.Iterations)
	}
	if off.SubproblemSolves < len(inst.Scenarios) {
		t.Fatalf("first iteration must touch every scenario, solves=%d", off.SubproblemSolves)
	}
	// Pruning: a scenario whose critical column did not change is not
	// re-solved, so total solves stay well below iterations × scenarios.
	if off.SubproblemSolves >= off.Iterations*len(inst.Scenarios) && off.Iterations > 1 {
		t.Fatalf("pruning ineffective: %d solves in %d iterations", off.SubproblemSolves, off.Iterations)
	}
}

// TestOfflineGammaVariantBoundsLoss: with γ = 1e-9, the smallest bound (0
// disables it), every connected flow stays at the per-scenario optimal
// ScenLoss in every scenario.
func TestOfflineGammaVariantBoundsLoss(t *testing.T) {
	inst := triangleInstance()
	off, err := Offline(inst, Options{Gamma: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for q, scen := range inst.Scenarios {
		for f := 0; f < inst.NumFlows(); f++ {
			k, i := inst.FlowOf(f)
			if inst.Demand[k][i] <= 0 || !inst.FlowConnected(k, i, scen) {
				continue
			}
			if off.SubLosses[f][q] > off.ScenLossOpt[q]+1e-6 {
				t.Fatalf("γ=0: flow %d loss %v exceeds optimal ScenLoss %v in scenario %d",
					f, off.SubLosses[f][q], off.ScenLossOpt[q], q)
			}
		}
	}
	// With γ=0 the triangle cannot reach PercLoss 0 (that's the whole
	// point of the trade-off knob): ScenBest-like behavior gives 0.5.
	if off.PercLoss[0] < 0.5-1e-6 {
		t.Fatalf("γ=0 PercLoss = %v, want 0.5 (ScenBest-equivalent)", off.PercLoss[0])
	}
}

// TestOfflineRejectsInfeasibleBeta: a β above a flow's connectivity mass
// must fail with a clear error.
func TestOfflineRejectsInfeasibleBeta(t *testing.T) {
	inst := triangleInstance()
	inst.Classes[0].Beta = 0.99999 // flows are connected only ~99.98%
	if _, err := Offline(inst, Options{}); err == nil {
		t.Fatal("want coverage error")
	}
}

// TestOnlineHonorsPromises: in every scenario, each critical flow receives
// at least its offline-promised fraction.
func TestOnlineHonorsPromises(t *testing.T) {
	inst := triangleInstance()
	off, err := Offline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for q := range inst.Scenarios {
		res, err := Online(inst, off, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < inst.NumFlows(); f++ {
			if !off.Critical.Get(f, q) {
				continue
			}
			promised := 1 - off.SubLosses[f][q]
			if res.Frac[f] < promised-1e-5 {
				t.Fatalf("scenario %d flow %d: promised %v, online %v", q, f, promised, res.Frac[f])
			}
		}
	}
}

// TestAugmentTriangleNeedsNothing: the paper's §3 point — Flexile meets the
// triangle objectives without any extra capacity.
func TestAugmentTriangleNeedsNothing(t *testing.T) {
	inst := triangleInstance()
	res, err := Augment(inst, AugmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost > 1e-6 {
		t.Fatalf("triangle should need zero augmentation, cost %v", res.TotalCost)
	}
	for k, pl := range res.AchievedPercLoss {
		if pl > 1e-6 {
			t.Fatalf("class %d residual loss %v", k, pl)
		}
	}
}

// TestAugmentScaledTriangle: doubling demands makes zero loss impossible
// without extra capacity; augmentation must add some and then achieve the
// target.
func TestAugmentScaledTriangle(t *testing.T) {
	inst := triangleInstance()
	inst.ScaleDemands(1.5)
	res, err := Augment(inst, AugmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost <= 0 {
		t.Fatal("scaled triangle needs extra capacity")
	}
	for k, pl := range res.AchievedPercLoss {
		if pl > 1e-6 {
			t.Fatalf("class %d residual loss %v after augmentation", k, pl)
		}
	}
	// The critical-scenario promises must be covered.
	for f := 0; f < inst.NumFlows(); f++ {
		if inst.FlowDemand(f) <= 0 {
			continue
		}
		mass := 0.0
		for q, s := range inst.Scenarios {
			if res.Critical.Get(f, q) {
				mass += s.Prob
			}
		}
		if mass < inst.Classes[0].Beta-1e-9 {
			t.Fatalf("flow %d critical mass %v below β", f, mass)
		}
	}
}

// TestAugmentCannotFixDisconnection: augmentation cannot create links, so
// an unreachable β errors out.
func TestAugmentCannotFixDisconnection(t *testing.T) {
	inst := triangleInstance()
	inst.Classes[0].Beta = 0.99999
	if _, err := Augment(inst, AugmentOptions{}); err == nil {
		t.Fatal("want error for unreachable β")
	}
}

// TestMaxZeroLossScaleTriangle: the triangle supports its unit demands
// (scale 1) but not much more at zero loss.
func TestMaxZeroLossScaleTriangle(t *testing.T) {
	inst := triangleInstance()
	route := func(trial *te.Instance) ([][]float64, error) {
		s := &Scheme{}
		r, err := s.Route(trial)
		if err != nil {
			return nil, err
		}
		return r.LossMatrix(trial), nil
	}
	scale, err := MaxZeroLossScale(inst, 0, route, 0.5, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if scale < 0.9 || scale > 1.3 {
		t.Fatalf("max zero-loss scale = %v, want ≈1 (unit links, unit demands)", scale)
	}
}
