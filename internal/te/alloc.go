package te

import (
	"context"
	"fmt"
	"math"

	"flexile/internal/failure"
	"flexile/internal/lp"
)

// The routing polytope every scheme's LP is built on (§6 compares them on
// one model): one column x ≥ 0 per tunnel, one Σx ≤ c_e row per link a
// column crosses. TunnelCols adds the columns, CapacityRows the rows, and
// RoutingOf reads a Routing back out of a solution. A builder calls
// CapacityRows at its own point in its LP, so each LP keeps its own column
// and row order (DESIGN.md §2.5).

// TunnelCols adds one column x ≥ 0 per tunnel that admit accepts, in
// (class, pair, tunnel) order, with the upper bound admit returns. It
// returns the columns as [k][i][t], −1 for a tunnel that has no column.
func TunnelCols(p *lp.Problem, inst *Instance, admit func(k, i, t int) (ub float64, ok bool)) [][][]int {
	cols := make([][][]int, len(inst.Classes))
	for k := range inst.Classes {
		cols[k] = make([][]int, len(inst.Pairs))
		for i := range inst.Pairs {
			cols[k][i] = make([]int, len(inst.Tunnels[k][i]))
			for t := range inst.Tunnels[k][i] {
				cols[k][i][t] = -1
				if ub, ok := admit(k, i, t); ok {
					cols[k][i][t] = p.AddCol(fmt.Sprintf("x[%d,%d,%d]", k, i, t), 0, ub, 0)
				}
			}
		}
	}
	return cols
}

// CapacityRows adds Σx ≤ capacity(e), in edge order, for every edge that
// some column of cols crosses, with each row's entries in cols order. It
// returns each edge's row, −1 for an edge no column crosses.
func CapacityRows(p *lp.Problem, inst *Instance, cols [][][]int, capacity func(e int) float64) []int {
	entries := make([][]lp.Entry, inst.Topo.G.NumEdges())
	for k := range cols {
		for i := range cols[k] {
			for t, c := range cols[k][i] {
				if c < 0 {
					continue
				}
				for _, e := range inst.Tunnels[k][i][t].Edges {
					entries[e] = append(entries[e], lp.Entry{Col: c, Coef: 1})
				}
			}
		}
	}
	rows := make([]int, len(entries))
	for e := range rows {
		rows[e] = -1
		if len(entries[e]) > 0 {
			rows[e] = p.AddLE(fmt.Sprintf("cap[%d]", e), capacity(e), entries[e]...)
		}
	}
	return rows
}

// RoutingOf reads the routing out of an LP solution x. cols holds the
// tunnel columns of every scenario ([q][k][i][t], an adaptive routing) or
// a single set all scenarios share (cols[0] alone, a static allocation).
// A tunnel that is dead in scenario q carries nothing there.
func RoutingOf(inst *Instance, x []float64, cols [][][][]int) *Routing {
	r := NewRouting(inst)
	for q, scen := range inst.Scenarios {
		alive := scen.Alive()
		cq := cols[min(q, len(cols)-1)]
		for k := range cq {
			for i := range cq[k] {
				for t, c := range cq[k][i] {
					if c >= 0 && inst.Tunnels[k][i][t].Alive(alive) {
						r.X[q][k][i][t] = x[c]
					}
				}
			}
		}
	}
	return r
}

// Alloc builds per-scenario bandwidth-allocation LPs. It creates one
// variable per live tunnel (columns for dead tunnels are omitted, which
// keeps the LPs small) and one capacity row per link carrying at least one
// live tunnel. Callers layer their objective and extra rows on top.
type Alloc struct {
	Inst *Instance
	Scen failure.Scenario
	LP   *lp.Problem
	// xIdx[k][i][t] is the LP column of tunnel t (−1 when the tunnel is
	// dead in the scenario or its class is excluded).
	xIdx [][][]int
}

// NewAlloc builds the LP skeleton. classes selects which class indices get
// variables (nil means all). fixedUse, when non-nil, is per-edge bandwidth
// already consumed by traffic outside this LP; it is subtracted from link
// capacities.
func NewAlloc(inst *Instance, scen failure.Scenario, classes []int, fixedUse []float64) *Alloc {
	a := &Alloc{Inst: inst, Scen: scen, LP: lp.NewProblem()}
	include := make([]bool, len(inst.Classes))
	if classes == nil {
		for k := range include {
			include[k] = true
		}
	} else {
		for _, k := range classes {
			include[k] = true
		}
	}
	alive := scen.Alive()
	a.xIdx = TunnelCols(a.LP, inst, func(k, i, t int) (float64, bool) {
		return lp.Inf, include[k] && inst.Tunnels[k][i][t].Alive(alive)
	})
	CapacityRows(a.LP, inst, a.xIdx, func(e int) float64 {
		cap := inst.Capacity(e)
		if fixedUse != nil {
			cap -= fixedUse[e]
			if cap < 0 {
				cap = 0
			}
		}
		return cap
	})
	return a
}

// XVar returns the LP column of tunnel t of (k, i), or −1 when dead.
func (a *Alloc) XVar(k, i, t int) int { return a.xIdx[k][i][t] }

// FlowEntries returns the LP entries summing the live-tunnel bandwidth of
// flow (k, i); empty when the flow is disconnected.
func (a *Alloc) FlowEntries(k, i int) []lp.Entry {
	var es []lp.Entry
	for t := range a.xIdx[k][i] {
		if c := a.xIdx[k][i][t]; c >= 0 {
			es = append(es, lp.Entry{Col: c, Coef: 1})
		}
	}
	return es
}

// ExtractX reads the per-tunnel allocation of (k, i) out of an LP solution.
func (a *Alloc) ExtractX(sol *lp.Solution, k, i int) []float64 {
	out := make([]float64, len(a.xIdx[k][i]))
	for t, c := range a.xIdx[k][i] {
		if c >= 0 {
			out[t] = sol.X[c]
		}
	}
	return out
}

// EdgeUse accumulates per-edge bandwidth used by an LP solution into use.
func (a *Alloc) EdgeUse(sol *lp.Solution, use []float64) {
	for k := range a.xIdx {
		for i := range a.xIdx[k] {
			for t, c := range a.xIdx[k][i] {
				if c < 0 || sol.X[c] <= 0 {
					continue
				}
				for _, e := range a.Inst.Tunnels[k][i][t].Edges {
					use[e] += sol.X[c]
				}
			}
		}
	}
}

// MaxConcurrentScale solves the maximum concurrent flow problem for the
// scenario: the largest z such that every flow in the included classes can
// receive z·demand over live tunnels within capacity. Flows with zero
// demand or no live tunnel are skipped (a disconnected flow would force
// z = 0; the caller decides how to treat those).
//
// Minimizing ScenLoss is equivalent to maximizing z: ScenLoss =
// max(0, 1−z) (paper appendix A).
func MaxConcurrentScale(inst *Instance, scen failure.Scenario, classes []int) (float64, *Alloc, *lp.Solution, error) {
	return MaxConcurrentScaleCtx(context.Background(), inst, scen, classes, nil, nil)
}

// MaxConcurrentScaleCtx is MaxConcurrentScale under a context, with an
// optional per-flow demand override (per-scenario traffic matrices, §4.4)
// and fixedUse (per-edge bandwidth claimed outside this problem) subtracted
// from link capacities. Cancellation or an expired deadline aborts the LP
// solve with the context error wrapped. An iteration-limited solve reports
// lp.ErrIterLimit so degraded-mode callers can classify the failure with
// errors.Is.
func MaxConcurrentScaleCtx(ctx context.Context, inst *Instance, scen failure.Scenario, classes []int, demands, fixedUse []float64) (float64, *Alloc, *lp.Solution, error) {
	a := NewAlloc(inst, scen, classes, fixedUse)
	z := a.LP.AddCol("z", 0, lp.Inf, -1) // maximize z
	any := false
	for k := range inst.Classes {
		for i := range inst.Pairs {
			d := inst.Demand[k][i]
			if demands != nil {
				d = demands[inst.FlowID(k, i)]
			}
			if d <= 0 {
				continue
			}
			es := a.FlowEntries(k, i)
			if len(es) == 0 {
				continue // disconnected, or its class has no columns
			}
			any = true
			es = append(es, lp.Entry{Col: z, Coef: -d})
			a.LP.AddGE(fmt.Sprintf("dem[%d,%d]", k, i), 0, es...)
		}
	}
	if !any {
		return math.Inf(1), a, nil, nil
	}
	sol, err := a.LP.SolveCtx(ctx, lp.Options{})
	if err != nil {
		return 0, nil, nil, err
	}
	if sol.Status == lp.IterLimit {
		return 0, nil, nil, fmt.Errorf("te: max concurrent flow: %w", lp.ErrIterLimit)
	}
	if sol.Status != lp.Optimal {
		return 0, nil, nil, fmt.Errorf("te: max concurrent flow: %v", sol.Status)
	}
	return sol.X[z], a, sol, nil
}
