// Package cvarflow implements the paper's two CVaR-based generalizations
// of Teavar (§5, appendix C), designed to isolate which of Flexile's
// advantages matter:
//
//   - Cvar-Flow-St evaluates CVaR per flow instead of per scenario
//     (removing Teavar's common-bad-scenarios conservatism) but keeps a
//     single static routing;
//   - Cvar-Flow-Ad additionally lets the routing adapt per scenario.
//
// Both still minimize CVaR — an overestimate of the percentile loss — so
// Flexile's direct VaR optimization retains an edge (Proposition 2).
package cvarflow

import (
	"fmt"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/te"
)

// St is Cvar-Flow-St (flow-level CVaR, static routing).
type St struct{}

// Name implements scheme.Scheme.
func (*St) Name() string { return "Cvar-Flow-St" }

// Route implements scheme.Scheme.
func (*St) Route(inst *te.Instance) (*te.Routing, error) {
	if len(inst.Classes) != 1 {
		return nil, fmt.Errorf("cvarflow: single traffic class required, got %d", len(inst.Classes))
	}
	beta := inst.Classes[0].Beta
	if beta >= 1 {
		return nil, fmt.Errorf("cvarflow: beta must be < 1, got %v", beta)
	}
	p := lp.NewProblem()
	cols := te.TunnelCols(p, inst, func(k, i, t int) (float64, bool) {
		if inst.Demand[k][i] <= 0 {
			return 0, true // zero-demand pairs must not consume capacity
		}
		return lp.Inf, true
	})
	xcol := cols[0]
	theta := p.AddCol("theta", -lp.Inf, lp.Inf, 1)
	// With a static allocation, a flow's loss in a scenario depends only on
	// which of its tunnels are alive (and the scenario's demand), so
	// scenarios with the same live-tunnel signature are merged into one
	// CVaR term with the group's total probability. This is exact and
	// shrinks the LP by an order of magnitude (≤ 2^tunnels groups per flow
	// versus |Q| scenarios), which matters enormously for the highly
	// degenerate CVaR LPs.
	for i := range inst.Pairs {
		if inst.Demand[0][i] <= 0 {
			continue
		}
		type group struct {
			prob float64
			es   []lp.Entry
		}
		groups := map[string]*group{}
		var order []string
		for q, scen := range inst.Scenarios {
			alive := scen.Alive()
			d := inst.DemandIn(0, i, q)
			sig := make([]byte, 0, len(inst.Tunnels[0][i])+16)
			var es []lp.Entry
			for t, path := range inst.Tunnels[0][i] {
				if path.Alive(alive) && d > 0 {
					sig = append(sig, byte(t))
					es = append(es, lp.Entry{Col: xcol[i][t], Coef: 1 / d})
				}
			}
			// Per-scenario demands break the grouping: include the demand
			// in the signature so only identical rows merge.
			if inst.ScenDemand != nil {
				sig = append(sig, []byte(fmt.Sprintf("|%.12g", d))...)
			}
			g, ok := groups[string(sig)]
			if !ok {
				g = &group{es: es}
				groups[string(sig)] = g
				order = append(order, string(sig))
			}
			g.prob += scen.Prob
		}
		alphaF := p.AddCol(fmt.Sprintf("alpha[%d]", i), -lp.Inf, lp.Inf, 0)
		thetaRow := []lp.Entry{{Col: theta, Coef: 1}, {Col: alphaF, Coef: -1}}
		for gi, sig := range order {
			g := groups[sig]
			sq := p.AddCol(fmt.Sprintf("s[%d,g%d]", i, gi), 0, lp.Inf, 0)
			es := append(append([]lp.Entry(nil), g.es...),
				lp.Entry{Col: sq, Coef: 1}, lp.Entry{Col: alphaF, Coef: 1})
			p.AddGE(fmt.Sprintf("loss[%d,g%d]", i, gi), 1, es...)
			thetaRow = append(thetaRow, lp.Entry{Col: sq, Coef: -g.prob / (1 - beta)})
		}
		if resid := 1 - failure.Coverage(inst.Scenarios); resid > failure.MassFloor {
			sr := p.AddCol(fmt.Sprintf("s[%d,resid]", i), 0, lp.Inf, 0)
			p.AddGE(fmt.Sprintf("loss[%d,resid]", i), 1,
				lp.Entry{Col: sr, Coef: 1}, lp.Entry{Col: alphaF, Coef: 1})
			thetaRow = append(thetaRow, lp.Entry{Col: sr, Coef: -resid / (1 - beta)})
		}
		p.AddGE(fmt.Sprintf("cvar[%d]", i), 0, thetaRow...)
	}
	te.CapacityRows(p, inst, cols, inst.Capacity)
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("cvarflow-st: %v", sol.Status)
	}
	return te.RoutingOf(inst, sol.X, [][][][]int{cols}), nil
}

// Ad is Cvar-Flow-Ad (flow-level CVaR, per-scenario adaptive routing).
type Ad struct{}

// Name implements scheme.Scheme.
func (*Ad) Name() string { return "Cvar-Flow-Ad" }

// Route implements scheme.Scheme.
func (*Ad) Route(inst *te.Instance) (*te.Routing, error) {
	if len(inst.Classes) != 1 {
		return nil, fmt.Errorf("cvarflow: single traffic class required, got %d", len(inst.Classes))
	}
	beta := inst.Classes[0].Beta
	if beta >= 1 {
		return nil, fmt.Errorf("cvarflow: beta must be < 1, got %v", beta)
	}
	p := lp.NewProblem()
	// Per-scenario allocation variables over live tunnels only.
	xcol := make([][][][]int, len(inst.Scenarios))
	for q, scen := range inst.Scenarios {
		alive := scen.Alive()
		xcol[q] = te.TunnelCols(p, inst, func(k, i, t int) (float64, bool) {
			return lp.Inf, inst.Demand[k][i] > 0 && inst.Tunnels[k][i][t].Alive(alive)
		})
		te.CapacityRows(p, inst, xcol[q], inst.Capacity)
	}
	theta := p.AddCol("theta", -lp.Inf, lp.Inf, 1)
	buildFlowCVaR(p, inst, beta, theta, func(i, q int) []lp.Entry {
		d := inst.DemandIn(0, i, q)
		var es []lp.Entry
		for _, c := range xcol[q][0][i] {
			if c >= 0 {
				es = append(es, lp.Entry{Col: c, Coef: 1 / d})
			}
		}
		return es
	})
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("cvarflow-ad: %v", sol.Status)
	}
	return te.RoutingOf(inst, sol.X, xcol), nil
}

// buildFlowCVaR adds, for every demanded flow i:
//
//	θ ≥ α_i + (1/(1−β))·Σ_q p_q·s_iq
//	s_iq + α_i + delivered_iq/d_i ≥ 1
//
// where delivered entries come from the routing-specific callback.
func buildFlowCVaR(p *lp.Problem, inst *te.Instance, beta float64, theta int, flowEntries func(i, q int) []lp.Entry) {
	for i := range inst.Pairs {
		d := inst.Demand[0][i]
		if d <= 0 {
			continue
		}
		alphaF := p.AddCol(fmt.Sprintf("alpha[%d]", i), -lp.Inf, lp.Inf, 0)
		thetaRow := []lp.Entry{{Col: theta, Coef: 1}, {Col: alphaF, Coef: -1}}
		for q, scen := range inst.Scenarios {
			sq := p.AddCol(fmt.Sprintf("s[%d,%d]", i, q), 0, lp.Inf, 0)
			es := append(flowEntries(i, q),
				lp.Entry{Col: sq, Coef: 1}, lp.Entry{Col: alphaF, Coef: 1})
			p.AddGE(fmt.Sprintf("loss[%d,%d]", i, q), 1, es...)
			thetaRow = append(thetaRow, lp.Entry{Col: sq, Coef: -scen.Prob / (1 - beta)})
		}
		// Residual pseudo-scenario: unenumerated probability mass counts
		// as total loss in the post-analysis, so it must be priced here.
		if resid := 1 - failure.Coverage(inst.Scenarios); resid > failure.MassFloor {
			sr := p.AddCol(fmt.Sprintf("s[%d,resid]", i), 0, lp.Inf, 0)
			p.AddGE(fmt.Sprintf("loss[%d,resid]", i), 1,
				lp.Entry{Col: sr, Coef: 1}, lp.Entry{Col: alphaF, Coef: 1})
			thetaRow = append(thetaRow, lp.Entry{Col: sr, Coef: -resid / (1 - beta)})
		}
		p.AddGE(fmt.Sprintf("cvar[%d]", i), 0, thetaRow...)
	}
}
