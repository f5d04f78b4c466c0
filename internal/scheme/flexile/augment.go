package flexile

import (
	"context"
	"fmt"
	"math"

	"flexile/internal/graph"
	"flexile/internal/lp"
	"flexile/internal/mip"
	"flexile/internal/te"
)

// AugmentOptions configures capacity augmentation (§4.4 and the appendix):
// find the minimum-cost capacity additions δ_e such that every class can
// meet a given PercLoss target.
type AugmentOptions struct {
	// Target[k] is the PercLoss bound class k must meet; nil means zero
	// loss for every class.
	Target []float64
	// Cost[e] is the per-unit cost of adding capacity to edge e; nil means
	// uniform cost 1.
	Cost []float64
	// MaxAug[e] caps the augmentation per edge; nil means 10× the edge's
	// capacity.
	MaxAug []float64
	// MaxIterations bounds the decomposition loop; 0 means 8.
	MaxIterations int
	// LP tunes the solvers.
	LP lp.Options
}

// augMasterNodes bounds the branch-and-bound nodes per augmentation master
// solve.
const augMasterNodes = 200

// augCut is a Benders cut in the joint (z, δ) space.
type augCut struct {
	yAlpha  []float64
	yCapRaw []float64 // raw capacity duals y_e ≤ 0 (unscaled)
	C       float64   // constant term w.r.t. (z, δ=0 base capacities)
	q       int
}

// AugmentResult is the outcome of capacity augmentation.
type AugmentResult struct {
	// Delta[e] is the capacity added to edge e.
	Delta []float64
	// TotalCost is Σ_e cost_e·δ_e.
	TotalCost float64
	// Critical is the accompanying critical-scenario selection.
	Critical *CriticalSet
	// AchievedPercLoss[k] is the realized PercLoss with the augmentation.
	AchievedPercLoss []float64
	// Iterations is the number of decomposition rounds used.
	Iterations int
}

// Augment computes a minimum-cost capacity augmentation meeting the
// per-class PercLoss targets, using the same Benders-style decomposition
// as the offline phase generalized to the (z, δ) space: subproblem duals
// give cuts linear in both the critical-scenario indicators and the added
// capacities (appendix, eq. 21 with c_e replaced by c_e+δ_e).
func Augment(inst *te.Instance, opt AugmentOptions) (*AugmentResult, error) {
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	g := inst.Topo.G
	if nq == 0 {
		return nil, fmt.Errorf("flexile: instance has no scenarios")
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 8
	}
	target := opt.Target
	if target == nil {
		target = make([]float64, len(inst.Classes))
	}
	cost := opt.Cost
	if cost == nil {
		cost = make([]float64, g.NumEdges())
		for e := range cost {
			cost[e] = 1
		}
	}
	maxAug := opt.MaxAug
	if maxAug == nil {
		maxAug = make([]float64, g.NumEdges())
		for e := range maxAug {
			maxAug[e] = 10 * g.Edge(e).Capacity
		}
	}

	// Connectivity (z eligibility) as in Offline.
	connected := make([][]bool, nf)
	for k := range inst.Classes {
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			connected[f] = make([]bool, nq)
			for q, s := range inst.Scenarios {
				connected[f][q] = inst.FlowConnected(k, i, s)
			}
			if inst.Demand[k][i] <= 0 {
				continue
			}
			mass := 0.0
			for q, s := range inst.Scenarios {
				if connected[f][q] {
					mass += s.Prob
				}
			}
			if mass < inst.Classes[k].Beta-1e-9 {
				return nil, fmt.Errorf("flexile: augmentation cannot help flow %d: connected mass %.6f < β=%v (capacity does not create links)",
					f, mass, inst.Classes[k].Beta)
			}
		}
	}

	// Warm start: all-connected critical, zero augmentation.
	z := NewCriticalSet(nf, nq)
	for f := 0; f < nf; f++ {
		for q := 0; q < nq; q++ {
			if connected[f][q] && inst.FlowDemand(f) > 0 {
				z.Set(f, q, true)
			}
		}
	}
	delta := make([]float64, g.NumEdges())

	aliveMask := make([][]bool, nq)
	for q, s := range inst.Scenarios {
		aliveMask[q] = s.AliveMask(g.NumEdges())
	}

	// Augmented instance view: a clone whose graph capacities we mutate.
	work := inst.Clone()
	workTopo := *inst.Topo
	workG := cloneGraph(g)
	workTopo.G = workG
	work.Topo = &workTopo

	// Each iteration re-solves every scenario at the new (z, δ), so a
	// scenario whose optimum did not move regenerates its exact cut — the
	// pool dedups those.
	pool := newCutPool(augCutKey, augCutEqual)

	// One LP serves every iteration: a solve reads the capacities, the only
	// thing δ changes, from work's graph into the row bounds.
	sp := newSubproblem(work, nil, opt.LP)

	res := &AugmentResult{Delta: delta}
	for iter := 0; iter < opt.MaxIterations; iter++ {
		// Apply current δ.
		for e := 0; e < g.NumEdges(); e++ {
			workG.SetCapacity(e, g.Edge(e).Capacity+delta[e])
		}
		worst := make([]float64, len(inst.Classes))
		feasible := true
		for q := range inst.Scenarios {
			sol, err := sp.solve(context.Background(), q, func(f int) bool { return z.Get(f, q) }, aliveMask[q], nil, nil)
			if err != nil {
				return nil, err
			}
			// Per-class worst critical loss in this scenario.
			for k := range inst.Classes {
				for i := range inst.Pairs {
					f := inst.FlowID(k, i)
					if z.Get(f, q) && sol.loss[f] > worst[k] {
						worst[k] = sol.loss[f]
					}
				}
			}
			// Cut in (z, δ): value ≥ C + Σ y_a(z−1) + Σ y_e·(c_e+δ_e)·m_eq.
			ct := augCut{
				yAlpha:  sol.cut.yAlpha,
				yCapRaw: make([]float64, g.NumEdges()),
				q:       q,
			}
			capTerm := 0.0
			for e := 0; e < g.NumEdges(); e++ {
				// cut.capCoef = y_e·(c_e+δ_e); recover y_e.
				capE := g.Edge(e).Capacity + delta[e]
				if capE > 0 {
					ct.yCapRaw[e] = sol.cut.capCoef[e] / capE
				}
				if aliveMask[q][e] {
					capTerm += ct.yCapRaw[e] * (g.Edge(e).Capacity + delta[e])
				}
			}
			zTerm := 0.0
			for f, y := range ct.yAlpha {
				if !z.Get(f, q) {
					zTerm -= y
				}
			}
			ct.C = sol.optval - zTerm - capTerm
			pool.add(ct)
		}
		res.Iterations = iter + 1
		for k := range inst.Classes {
			if worst[k] > target[k]+1e-7 {
				feasible = false
			}
		}
		if feasible {
			res.AchievedPercLoss = worst
			res.Critical = z.Clone()
			res.Delta = append([]float64(nil), delta...)
			res.TotalCost = 0
			for e := range delta {
				res.TotalCost += cost[e] * delta[e]
			}
			return res, nil
		}
		// Master in (z, δ): min Σ cost·δ s.t. coverage, cuts ≤ target.
		nz, nd, err := solveAugMaster(inst, connected, pool.cuts, z, aliveMask, target, cost, maxAug, opt)
		if err != nil {
			return nil, err
		}
		z, delta = nz, nd
	}
	return nil, fmt.Errorf("flexile: augmentation did not converge in %d iterations", opt.MaxIterations)
}

// cloneGraph deep-copies a graph so capacities can be mutated per
// iteration without touching the caller's topology.
func cloneGraph(g *graph.Graph) *graph.Graph {
	out := graph.New(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		out.SetNodeName(v, g.NodeName(v))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(e)
		out.AddEdge(ed.A, ed.B, ed.Capacity)
	}
	return out
}

// solveAugMaster solves the augmentation master: minimize Σ cost_e·δ_e over
// binary z (coverage per flow) and δ ∈ [0, maxAug], subject to every cut
// keeping the (weighted) subproblem value within the target. Targets are
// enforced through the weighted objective Σ_k w_k·target_k, which is exact
// for the common zero-loss target.
func solveAugMaster(inst *te.Instance, connected [][]bool, cuts []augCut, zPrev *CriticalSet, aliveMask [][]bool, target, cost, maxAug []float64, opt AugmentOptions) (*CriticalSet, []float64, error) {
	g := inst.Topo.G
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	wTarget := 0.0
	for k := range inst.Classes {
		wTarget += inst.Classes[k].Weight * target[k]
	}
	p := lp.NewProblem()
	dcol := make([]int, g.NumEdges())
	for e := range dcol {
		dcol[e] = p.AddCol(fmt.Sprintf("delta[%d]", e), 0, maxAug[e], cost[e])
	}
	zcol := make([][]int, nf)
	var binaries []int
	var binFlow, binScen []int
	for f := 0; f < nf; f++ {
		zcol[f] = make([]int, nq)
		for q := range zcol[f] {
			zcol[f][q] = -1
		}
		if inst.FlowDemand(f) <= 0 {
			continue
		}
		for q := 0; q < nq; q++ {
			if !connected[f][q] {
				continue
			}
			col := p.AddCol(fmt.Sprintf("z[%d,%d]", f, q), 0, 1, 0)
			zcol[f][q] = col
			binaries = append(binaries, col)
			binFlow = append(binFlow, f)
			binScen = append(binScen, q)
		}
	}
	for k := range inst.Classes {
		for i := range inst.Pairs {
			if inst.Demand[k][i] <= 0 {
				continue
			}
			f := inst.FlowID(k, i)
			var es []lp.Entry
			for q, s := range inst.Scenarios {
				if zcol[f][q] >= 0 {
					es = append(es, lp.Entry{Col: zcol[f][q], Coef: s.Prob})
				}
			}
			p.AddGE(fmt.Sprintf("cov[%d]", f), inst.Classes[k].Beta-1e-9, es...)
		}
	}
	// Cut rows: Σ_f y_af·z_fq + Σ_e (y_e·m_eq)·δ_e ≤
	//           T − C + Σ_f y_af − Σ_e y_e·c_e·m_eq.
	for ci, ct := range cuts {
		q := ct.q
		rhs := wTarget - ct.C
		var es []lp.Entry
		for f, y := range ct.yAlpha {
			if y == 0 {
				continue
			}
			rhs += y
			if zcol[f][q] >= 0 {
				es = append(es, lp.Entry{Col: zcol[f][q], Coef: y})
			}
			// z fixed at 0 contributes nothing to the LHS.
		}
		for e, y := range ct.yCapRaw {
			if y == 0 || !aliveMask[q][e] {
				continue
			}
			rhs -= y * g.Edge(e).Capacity
			es = append(es, lp.Entry{Col: dcol[e], Coef: y})
		}
		if len(es) == 0 {
			if rhs < -1e-9 {
				return nil, nil, fmt.Errorf("flexile: augmentation cut %d is unconditionally violated", ci)
			}
			continue
		}
		p.AddLE(fmt.Sprintf("cut[%d]", ci), rhs, es...)
	}
	warm := make([]float64, len(binaries))
	for b := range binaries {
		if zPrev.Get(binFlow[b], binScen[b]) {
			warm[b] = 1
		}
	}
	sol, err := mip.Solve(&mip.Problem{LP: p, Binary: binaries}, mip.Options{
		MaxNodes:   augMasterNodes,
		LP:         opt.LP,
		WarmBinary: warm,
	})
	if err != nil {
		return nil, nil, err
	}
	if sol.Status == mip.Infeasible || sol.Status == mip.Unbounded {
		return nil, nil, fmt.Errorf("flexile: augmentation master %v", sol.Status)
	}
	nz := NewCriticalSet(nf, nq)
	for b, col := range binaries {
		if sol.X[col] > 0.5 {
			nz.Set(binFlow[b], binScen[b], true)
		}
	}
	nd := make([]float64, g.NumEdges())
	for e := range nd {
		nd[e] = math.Max(0, sol.X[dcol[e]])
	}
	return nz, nd, nil
}
