// Package ip implements the paper's direct MIP formulation (I): jointly
// choose the binary critical-scenario indicators z_fq and the per-scenario
// routing minimizing Σ_k w_k·PercLoss_k. It is exponentially more expensive
// than Flexile's decomposition — the paper could not finish Deltacom within
// an hour with Gurobi — but on small instances it provides the exact
// optimum against which Flexile's convergence (Fig. 14) and solving time
// (Fig. 15) are measured.
package ip

import (
	"fmt"

	"flexile/internal/lp"
	"flexile/internal/mip"
	"flexile/internal/te"
)

// Scheme solves formulation (I) directly.
type Scheme struct {
	// MaxNodes bounds branch-and-bound nodes; 0 means 4000.
	MaxNodes int
	// Status of the last solve (mip.Optimal means a proven optimum).
	Status mip.Status
	// Objective of the last solve: Σ_k w_k·α_k.
	Objective float64
}

// Name implements scheme.Scheme.
func (*Scheme) Name() string { return "IP" }

// Route implements scheme.Scheme.
func (s *Scheme) Route(inst *te.Instance) (*te.Routing, error) {
	maxNodes := s.MaxNodes
	if maxNodes == 0 {
		maxNodes = 4000
	}
	p := lp.NewProblem()
	nq := len(inst.Scenarios)

	acol := make([]int, len(inst.Classes))
	for k, cls := range inst.Classes {
		acol[k] = p.AddCol(fmt.Sprintf("alpha[%d]", k), 0, lp.Inf, cls.Weight)
	}
	// Per-scenario routing variables over live tunnels.
	xcol := make([][][][]int, nq) // [q][k][i][t]
	zcol := make([][]int, inst.NumFlows())
	for f := range zcol {
		zcol[f] = make([]int, nq)
		for q := range zcol[f] {
			zcol[f][q] = -1
		}
	}
	var binaries []int
	var binFlow, binScen []int
	for q, scen := range inst.Scenarios {
		alive := scen.Alive()
		xcol[q] = te.TunnelCols(p, inst, func(k, i, t int) (float64, bool) {
			return lp.Inf, inst.Demand[k][i] > 0 && inst.Tunnels[k][i][t].Alive(alive)
		})
		te.CapacityRows(p, inst, xcol[q], inst.Capacity)
		// Loss, z-link and demand rows per demanded connected flow.
		for k := range inst.Classes {
			for i := range inst.Pairs {
				if inst.Demand[k][i] <= 0 {
					continue
				}
				d := inst.DemandIn(k, i, q)
				if d <= 0 || !inst.FlowConnected(k, i, scen) {
					continue // disconnected: l=1 and z=0, both constant
				}
				f := inst.FlowID(k, i)
				l := p.AddCol(fmt.Sprintf("l[%d,%d]", f, q), 0, 1, 0)
				z := p.AddCol(fmt.Sprintf("z[%d,%d]", f, q), 0, 1, 0)
				zcol[f][q] = z
				binaries = append(binaries, z)
				binFlow = append(binFlow, f)
				binScen = append(binScen, q)
				// α_k ≥ l + z − 1  (constraint 4)
				p.AddGE(fmt.Sprintf("a[%d,%d]", f, q), -1,
					lp.Entry{Col: acol[k], Coef: 1}, lp.Entry{Col: l, Coef: -1}, lp.Entry{Col: z, Coef: -1})
				// Σ_t x + d·l ≥ d  (constraint 5)
				es := []lp.Entry{{Col: l, Coef: d}}
				for _, c := range xcol[q][k][i] {
					if c >= 0 {
						es = append(es, lp.Entry{Col: c, Coef: 1})
					}
				}
				p.AddGE(fmt.Sprintf("d[%d,%d]", f, q), d, es...)
			}
		}
	}
	// Coverage rows (3).
	var groups [][]int
	var targets []float64
	weights := make([]float64, len(binaries))
	groupOf := map[int][]int{}
	for b := range binaries {
		weights[b] = inst.Scenarios[binScen[b]].Prob
		groupOf[binFlow[b]] = append(groupOf[binFlow[b]], b)
	}
	for k := range inst.Classes {
		for i := range inst.Pairs {
			if inst.Demand[k][i] <= 0 {
				continue
			}
			f := inst.FlowID(k, i)
			var es []lp.Entry
			mass := 0.0
			for q, scen := range inst.Scenarios {
				if zcol[f][q] >= 0 {
					es = append(es, lp.Entry{Col: zcol[f][q], Coef: scen.Prob})
					mass += scen.Prob
				}
			}
			if mass < inst.Classes[k].Beta-lp.DefaultTol {
				return nil, fmt.Errorf("ip: flow %d connected mass %.6f below β=%v", f, mass, inst.Classes[k].Beta)
			}
			p.AddGE(fmt.Sprintf("cov[%d]", f), inst.Classes[k].Beta-lp.DefaultTol, es...)
			groups = append(groups, groupOf[f])
			targets = append(targets, inst.Classes[k].Beta)
		}
	}
	sol, err := mip.Solve(&mip.Problem{LP: p, Binary: binaries}, mip.Options{
		MaxNodes:  maxNodes,
		Heuristic: mip.RoundGreedyCover(groups, weights, targets),
	})
	if err != nil {
		return nil, err
	}
	if sol.X == nil { // infeasible, unbounded, or no incumbent within the node limit
		return nil, fmt.Errorf("ip: %v", sol.Status)
	}
	s.Status = sol.Status
	s.Objective = sol.Objective
	return te.RoutingOf(inst, sol.X, xcol), nil
}
