// Package teavar implements Teavar (Bogle et al., SIGCOMM 2019) as the
// paper describes it in §2 and §5: a single LP that chooses one static
// tunnel allocation x_t minimizing the Conditional Value at Risk (CVaR) of
// ScenLoss — the worst pair's loss per scenario — at level β. On failure,
// traffic on dead tunnels is lost; the allocation itself never adapts.
//
// CVaR is an over-estimate of the β-percentile loss (VaR), and evaluating
// the worst pair per scenario ties every flow to a common set of bad
// scenarios; both conservatisms are what Flexile removes (§5, Prop. 2).
package teavar

import (
	"fmt"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/te"
)

// Scheme is Teavar. Single traffic class only (the paper's comparisons with
// Teavar all use one class).
type Scheme struct{}

// Name implements scheme.Scheme.
func (*Scheme) Name() string { return "Teavar" }

// Route implements scheme.Scheme.
func (*Scheme) Route(inst *te.Instance) (*te.Routing, error) {
	if len(inst.Classes) != 1 {
		return nil, fmt.Errorf("teavar: single traffic class required, got %d", len(inst.Classes))
	}
	beta := inst.Classes[0].Beta
	if beta >= 1 {
		return nil, fmt.Errorf("teavar: beta must be < 1, got %v", beta)
	}
	p := lp.NewProblem()
	// Static allocation variables.
	cols := te.TunnelCols(p, inst, func(k, i, t int) (float64, bool) {
		if inst.Demand[k][i] <= 0 {
			return 0, true // zero-demand pairs must not consume capacity
		}
		return lp.Inf, true
	})
	xcol := cols[0]
	alpha := p.AddCol("alpha", -lp.Inf, lp.Inf, 1)
	scol := make([]int, len(inst.Scenarios))
	for q, scen := range inst.Scenarios {
		scol[q] = p.AddCol(fmt.Sprintf("s[%d]", q), 0, lp.Inf, scen.Prob/(1-beta))
	}
	// Residual pseudo-scenario: probability mass not covered by the
	// enumerated scenarios counts as total loss (the post-analysis
	// convention), so the CVaR objective must price it too.
	if resid := 1 - failure.Coverage(inst.Scenarios); resid > failure.MassFloor {
		sr := p.AddCol("s[resid]", 0, lp.Inf, resid/(1-beta))
		p.AddGE("cvar[resid]", 1, lp.Entry{Col: sr, Coef: 1}, lp.Entry{Col: alpha, Coef: 1})
	}
	// CVaR rows: s_q + α + Σ_t x_t·y_tq/d_i ≥ 1 for every demanded pair.
	for q, scen := range inst.Scenarios {
		alive := scen.Alive()
		for i := range inst.Pairs {
			if inst.Demand[0][i] <= 0 {
				continue
			}
			d := inst.DemandIn(0, i, q)
			if d <= 0 {
				continue
			}
			es := []lp.Entry{{Col: scol[q], Coef: 1}, {Col: alpha, Coef: 1}}
			for t, path := range inst.Tunnels[0][i] {
				if path.Alive(alive) {
					es = append(es, lp.Entry{Col: xcol[i][t], Coef: 1 / d})
				}
			}
			p.AddGE(fmt.Sprintf("cvar[%d,%d]", i, q), 1, es...)
		}
	}
	// Static capacity rows (the allocation must fit with all links up).
	te.CapacityRows(p, inst, cols, inst.Capacity)
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("teavar: %v", sol.Status)
	}
	// Emit the proportional-recovery routing: the static allocation with
	// dead tunnels zeroed per scenario.
	return te.RoutingOf(inst, sol.X, [][][][]int{cols}), nil
}
