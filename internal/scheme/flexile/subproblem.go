package flexile

import (
	"context"
	"fmt"
	"math"

	"flexile/internal/lp"
	"flexile/internal/te"
)

// subproblem is the reformulated per-scenario LP (S_q) of §4.2 with
// constraints (17)–(18): the left-hand side is identical for every
// scenario; only right-hand sides change (z_fq − 1 on the α rows, c_e·m_eq
// on the capacity rows). The LP is therefore built once and re-solved with
// mutated row bounds for each (scenario, critical-set) pair — and, more
// importantly, a dual solution of any scenario's LP is dual-feasible for
// every other scenario's, which is what lets one solve produce cuts for
// many scenarios (appendix eq. 22).
//
// Variables: x_kit ≥ 0 for every tunnel (dead tunnels are forced to zero by
// the zeroed capacity of their failed links), l_f ∈ [0,1] for every
// demanded flow, α_k ≥ 0 per class. Objective: Σ_k w_k·α_k.
type subproblem struct {
	inst *te.Instance
	p    *lp.Problem

	xcol     [][][]int // [k][i][t]
	lcol     []int     // per flow id; -1 for zero-demand flows
	acol     []int     // per class
	alphaRow []int     // per flow id; -1 for zero-demand flows
	capRow   []int     // per edge; -1 if no tunnel crosses it

	lpOpts lp.Options
	// solver is p's compiled form (lp.Compile): the sparse column structure
	// is compiled once and every solve reads p's mutated bounds as a zero
	// variant, skipping the per-solve column rebuild and workspace
	// allocation of p.SolveCtx. The answer is bit-identical to that call's
	// (lp.BatchSolver's contract).
	solver *lp.BatchSolver
}

// subSolution is the outcome of one subproblem solve.
type subSolution struct {
	optval float64
	// loss[f] is l_fq for every flow (1 for zero-demand/disconnected-and-
	// non-modeled flows is the caller's concern; here zero-demand = 0).
	loss []float64
	// x[k][i][t] is the scenario routing.
	x [][][]float64
	// cut is the Benders cut generated from the dual solution.
	cut *cut
}

// cut represents Penalty ≥ C + Σ_f yAlpha[f]·(z_f − 1) + Σ_e capCoef[e]·m_e,
// valid for every scenario thanks to the shared dual space.
type cut struct {
	// yAlpha[f] ≥ 0 is the dual of flow f's α row; zero entries are common.
	yAlpha []float64
	// capCoef[e] = y_e·c_e ≤ 0 is the capacity dual scaled by capacity.
	capCoef []float64
	// C collects all the z/m-independent terms (demand duals and variable
	// bound contributions), computed via strong duality at the native
	// scenario.
	C float64
	// nativeQ is the scenario whose solve produced the cut.
	nativeQ int
}

// value evaluates the cut at a critical-set column and an alive mask.
func (c *cut) value(z func(f int) bool, aliveCap []float64) float64 {
	v := c.C
	for f, y := range c.yAlpha {
		if y == 0 {
			continue
		}
		if z(f) {
			// (z_f − 1) = 0
			continue
		}
		v -= y
	}
	for e, cc := range c.capCoef {
		if cc != 0 {
			v += cc * aliveCap[e]
		}
	}
	return v
}

// newSubproblem builds the LP. A nil demands means the instance's base
// demands; a non-nil one is an explicit per-flow demand vector (per-scenario
// traffic matrices, §4.4), which makes the LP scenario-specific: its cuts
// must not be shared across scenarios.
func newSubproblem(inst *te.Instance, demands []float64, lpOpts lp.Options) *subproblem {
	demandOf := func(f int) float64 {
		if demands != nil {
			return demands[f]
		}
		return inst.FlowDemand(f)
	}
	sp := &subproblem{inst: inst, p: lp.NewProblem(), lpOpts: lpOpts}
	g := inst.Topo.G
	nf := inst.NumFlows()
	sp.xcol = make([][][]int, len(inst.Classes))
	sp.lcol = make([]int, nf)
	sp.alphaRow = make([]int, nf)
	sp.acol = make([]int, len(inst.Classes))
	sp.capRow = make([]int, g.NumEdges())
	edgeEntries := make([][]lp.Entry, g.NumEdges())

	for k := range inst.Classes {
		sp.xcol[k] = make([][]int, len(inst.Pairs))
		for i := range inst.Pairs {
			sp.xcol[k][i] = make([]int, len(inst.Tunnels[k][i]))
			ub := lp.Inf
			if demandOf(inst.FlowID(k, i)) <= 0 {
				ub = 0 // zero-demand flows must not consume capacity
			}
			for t := range inst.Tunnels[k][i] {
				col := sp.p.AddCol(fmt.Sprintf("x[%d,%d,%d]", k, i, t), 0, ub, 0)
				sp.xcol[k][i][t] = col
				for _, e := range inst.Tunnels[k][i][t].Edges {
					edgeEntries[e] = append(edgeEntries[e], lp.Entry{Col: col, Coef: 1})
				}
			}
		}
	}
	for k, cls := range inst.Classes {
		sp.acol[k] = sp.p.AddCol(fmt.Sprintf("alpha[%d]", k), 0, lp.Inf, cls.Weight)
	}
	for k := range inst.Classes {
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			d := demandOf(f)
			if d <= 0 {
				sp.lcol[f] = -1
				sp.alphaRow[f] = -1
				continue
			}
			sp.lcol[f] = sp.p.AddCol(fmt.Sprintf("l[%d]", f), 0, 1, 0)
			// α_k − l_f ≥ z_fq − 1 (RHS mutated per scenario).
			sp.alphaRow[f] = sp.p.AddGE(fmt.Sprintf("a[%d]", f), -1,
				lp.Entry{Col: sp.acol[k], Coef: 1}, lp.Entry{Col: sp.lcol[f], Coef: -1})
			// Demand: Σ_t x + d·l ≥ d (constraint 17 with loss folded in).
			es := make([]lp.Entry, 0, len(sp.xcol[k][i])+1)
			for _, col := range sp.xcol[k][i] {
				es = append(es, lp.Entry{Col: col, Coef: 1})
			}
			es = append(es, lp.Entry{Col: sp.lcol[f], Coef: d})
			sp.p.AddGE(fmt.Sprintf("d[%d]", f), d, es...)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		sp.capRow[e] = -1
		if len(edgeEntries[e]) > 0 {
			sp.capRow[e] = sp.p.AddLE(fmt.Sprintf("c[%d]", e), g.Edge(e).Capacity, edgeEntries[e]...)
		}
	}
	bp, err := sp.p.Compile()
	if err != nil {
		// Compile rejects only an entry naming a column that was never
		// added, which the loops above cannot produce.
		panic(fmt.Sprintf("flexile: subproblem LP does not compile: %v", err))
	}
	sp.solver = bp.NewSolver()
	return sp
}

// solve optimizes (S_q) for one scenario. critical(f) gives z_fq; alive is
// the edge mask m_eq; lossUB, when non-nil, upper-bounds each flow's loss
// (the §4.4 γ generalization); capUse, when non-nil, is per-edge bandwidth
// already claimed by higher-priority classes (sequential design, §4.4).
// Returns the solution and a freshly extracted cut.
func (sp *subproblem) solve(ctx context.Context, q int, critical func(f int) bool, alive []bool, lossUB, capUse []float64) (*subSolution, error) {
	return sp.solveWith(ctx, sp.lpOpts, q, critical, alive, lossUB, capUse)
}

// solveWith is solve with explicit LP options — the retry policy's hook
// for re-solving a failed scenario under hardened settings (Bland's rule,
// a larger pivot budget) without rebuilding the LP.
func (sp *subproblem) solveWith(ctx context.Context, lpOpts lp.Options, q int, critical func(f int) bool, alive []bool, lossUB, capUse []float64) (*subSolution, error) {
	inst := sp.inst
	g := inst.Topo.G
	for f, row := range sp.alphaRow {
		if row < 0 {
			continue
		}
		rhs := -1.0
		if critical(f) {
			rhs = 0
		}
		sp.p.SetRowBounds(row, rhs, lp.Inf)
		ub := 1.0
		if lossUB != nil && lossUB[f] < 1 {
			ub = lossUB[f]
		}
		sp.p.SetColBounds(sp.lcol[f], 0, ub)
	}
	effCap := make([]float64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		if sp.capRow[e] < 0 {
			continue
		}
		cap := g.Edge(e).Capacity
		if capUse != nil {
			cap -= capUse[e]
			if cap < 0 {
				cap = 0
			}
		}
		effCap[e] = cap
		if !alive[e] {
			cap = 0
		}
		sp.p.SetRowBounds(sp.capRow[e], -lp.Inf, cap)
	}
	sol, err := sp.solver.SolveCtx(ctx, lp.Variant{}, lpOpts)
	if err != nil {
		return nil, fmt.Errorf("flexile: subproblem scenario %d: %w", q, err)
	}
	if sol.Status == lp.IterLimit {
		return nil, fmt.Errorf("flexile: subproblem scenario %d: %w", q, lp.ErrIterLimit)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("flexile: subproblem scenario %d: %v", q, sol.Status)
	}
	out := &subSolution{
		optval: sol.Objective,
		loss:   make([]float64, inst.NumFlows()),
		x:      make([][][]float64, len(inst.Classes)),
	}
	for k := range inst.Classes {
		out.x[k] = make([][]float64, len(inst.Pairs))
		for i := range inst.Pairs {
			xs := make([]float64, len(sp.xcol[k][i]))
			for t, col := range sp.xcol[k][i] {
				xs[t] = sol.X[col]
			}
			out.x[k][i] = xs
		}
	}
	for f, col := range sp.lcol {
		if col >= 0 {
			out.loss[f] = clamp01(sol.X[col])
		}
	}
	// Cut extraction. C is recovered from strong duality at the native
	// scenario: optval = C + Σ_f y_af·(z_f−1) + Σ_e y_e·c_e·m_e.
	ct := &cut{
		yAlpha:  make([]float64, inst.NumFlows()),
		capCoef: make([]float64, g.NumEdges()),
		nativeQ: q,
	}
	zTerm := 0.0
	for f, row := range sp.alphaRow {
		if row < 0 {
			continue
		}
		y := sol.RowDual[row]
		if y < 0 { // α rows are ≥ rows: duals must be ≥ 0 (numerical noise)
			y = 0
		}
		ct.yAlpha[f] = y
		if !critical(f) {
			zTerm -= y // (z_f − 1) = −1
		}
	}
	capTerm := 0.0
	for e := 0; e < g.NumEdges(); e++ {
		if sp.capRow[e] < 0 {
			continue
		}
		y := sol.RowDual[sp.capRow[e]]
		if y > 0 { // capacity rows are ≤ rows: duals must be ≤ 0
			y = 0
		}
		ct.capCoef[e] = y * effCap[e]
		if alive[e] {
			capTerm += ct.capCoef[e]
		}
	}
	ct.C = sol.Objective - zTerm - capTerm
	out.cut = ct
	return out, nil
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}
