package te

import (
	"context"
	"fmt"
	"math"

	"flexile/internal/failure"
	"flexile/internal/lp"
)

// ScaleBatch is the batched counterpart of MaxConcurrentScale: the
// maximum-concurrent-flow LP compiled once over the instance's full
// (no-failure) tunnel structure, with per-scenario failures applied as
// bound-only variants — a dead tunnel's column is clamped to zero, a
// disconnected flow's demand row is relaxed away. Every scenario then
// re-solves one compiled structure instead of building its own Problem,
// and solves can warm-start from a shared basis because all variants share
// one column space.
//
// The per-scenario optimum equals MaxConcurrentScale's (the variant has
// the same feasible set as the scenario-built LP plus zero-fixed columns),
// but the simplex may reach it along a different pivot path, so values
// agree to solver tolerance rather than bit-for-bit.
//
// No production code calls it: the offline ScenLoss precompute, which runs
// only for γ designs (Options.Gamma > 0), solves every scenario through
// MaxConcurrentScaleCtx. Its only callers are the benchmark
// harness's te.scalebatch_compile_ms / te.scaleloss_ms probes
// (bench/layers.go) and scalebatch_test.go; it goes when a benchmark-only
// change drops those probes.
type ScaleBatch struct {
	inst *Instance
	bp   *lp.BatchProblem
	z    int // the concurrent-scale column
	// tunCol[k][i][t] is the column of tunnel t of flow (k,i).
	tunCol [][][]int
	// flowRow[k][i] is the demand row of flow (k,i), -1 when the flow has
	// no demand (no row was built).
	flowRow [][]int
	colUB   []float64 // base column upper bounds (all +Inf)
	rowLB   []float64 // base row lower bounds
}

// NewScaleBatch compiles the instance's max-concurrent-flow structure.
// Instances with per-scenario traffic matrices are not supported (demand
// coefficients are structural, not bounds): the caller must gate on
// inst.ScenDemand == nil.
func NewScaleBatch(inst *Instance) (*ScaleBatch, error) {
	if inst.ScenDemand != nil {
		return nil, fmt.Errorf("te: ScaleBatch does not support per-scenario traffic matrices")
	}
	p := lp.NewProblem()
	sb := &ScaleBatch{inst: inst}
	sb.tunCol = TunnelCols(p, inst, func(k, i, t int) (float64, bool) { return lp.Inf, true })
	CapacityRows(p, inst, sb.tunCol, inst.Capacity)
	sb.z = p.AddCol("z", 0, lp.Inf, -1) // maximize z
	sb.flowRow = make([][]int, len(inst.Classes))
	for k := range inst.Classes {
		sb.flowRow[k] = make([]int, len(inst.Pairs))
		for i := range inst.Pairs {
			sb.flowRow[k][i] = -1
			d := inst.Demand[k][i]
			if d <= 0 {
				continue
			}
			es := make([]lp.Entry, 0, len(sb.tunCol[k][i])+1)
			for _, c := range sb.tunCol[k][i] {
				es = append(es, lp.Entry{Col: c, Coef: 1})
			}
			es = append(es, lp.Entry{Col: sb.z, Coef: -d})
			sb.flowRow[k][i] = p.AddGE(fmt.Sprintf("dem[%d,%d]", k, i), 0, es...)
		}
	}
	bp, err := p.Compile()
	if err != nil {
		return nil, err
	}
	sb.bp = bp
	n, m := bp.NumCols(), bp.NumRows()
	sb.colUB = make([]float64, n)
	for j := range sb.colUB {
		sb.colUB[j] = lp.Inf
	}
	sb.rowLB = make([]float64, m)
	for i := range sb.rowLB {
		sb.rowLB[i] = -lp.Inf
	}
	for k := range sb.flowRow {
		for i := range sb.flowRow[k] {
			if r := sb.flowRow[k][i]; r >= 0 {
				sb.rowLB[r] = 0
			}
		}
	}
	return sb, nil
}

// ScaleSolver solves scenarios against one compiled ScaleBatch. Not safe
// for concurrent use — create one per goroutine; they share the compiled
// structure.
type ScaleSolver struct {
	sb    *ScaleBatch
	s     *lp.BatchSolver
	colUB []float64
	rowLB []float64
}

// NewSolver returns a solver with its own workspace.
func (sb *ScaleBatch) NewSolver() *ScaleSolver {
	return &ScaleSolver{
		sb:    sb,
		s:     sb.bp.NewSolver(),
		colUB: make([]float64, len(sb.colUB)),
		rowLB: make([]float64, len(sb.rowLB)),
	}
}

// Solve computes the scenario's maximum concurrent scale z (and the final
// basis, for warm-starting subsequent scenarios). Semantics match
// MaxConcurrentScaleCtx: +Inf when no demanded flow is connected,
// lp.ErrIterLimit on iteration exhaustion.
func (sv *ScaleSolver) Solve(ctx context.Context, scen failure.Scenario, opts lp.Options) (float64, *lp.Basis, error) {
	sb := sv.sb
	copy(sv.colUB, sb.colUB)
	copy(sv.rowLB, sb.rowLB)
	alive := scen.Alive()
	anyFlow := false
	for k := range sb.tunCol {
		for i := range sb.tunCol[k] {
			row := sb.flowRow[k][i]
			flowAlive := false
			for t, c := range sb.tunCol[k][i] {
				if sb.inst.Tunnels[k][i][t].Alive(alive) {
					flowAlive = true
				} else {
					sv.colUB[c] = 0
				}
			}
			if row < 0 {
				continue
			}
			if flowAlive {
				anyFlow = true
			} else {
				// Disconnected flow: relax its demand row so it cannot
				// force z to zero — exactly MaxConcurrentScale's "skip
				// flows with no live tunnel".
				sv.rowLB[row] = -lp.Inf
			}
		}
	}
	if !anyFlow {
		return math.Inf(1), nil, nil
	}
	sol, err := sv.s.SolveCtx(ctx, lp.Variant{ColUB: sv.colUB, RowLB: sv.rowLB}, opts)
	if err != nil {
		return 0, nil, err
	}
	if sol.Status == lp.IterLimit {
		return 0, nil, fmt.Errorf("te: max concurrent flow: %w", lp.ErrIterLimit)
	}
	if sol.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("te: max concurrent flow: %v", sol.Status)
	}
	return sol.X[sb.z], sol.Basis(), nil
}
