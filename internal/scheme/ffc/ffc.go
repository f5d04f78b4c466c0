// Package ffc implements Forward Fault Correction (Liu et al., SIGCOMM
// 2014), the congestion-free local-rerouting scheme §2 presents as the
// foundation Teavar extends. FFC solves one offline robust LP: grant each
// flow a bandwidth b_i and static tunnel weights x_t such that, in every
// state with at most F simultaneous link failures, the granted bandwidth
// still fits when traffic is proportionally rescaled onto live tunnels.
// Admission is deliberately conservative — that is exactly the behaviour
// the probabilistic schemes (Teavar, Flexile) improve on.
package ffc

import (
	"fmt"

	"flexile/internal/lp"
	"flexile/internal/te"
)

// Scheme is FFC. Single traffic class.
type Scheme struct {
	// F is the number of simultaneous link failures to protect against;
	// 0 means 1 (the common deployment).
	F int
	// Granted, populated by Route, is the offline bandwidth grant per pair.
	Granted []float64
}

// Name implements scheme.Scheme.
func (s *Scheme) Name() string { return fmt.Sprintf("FFC(f=%d)", s.f()) }

func (s *Scheme) f() int {
	if s.F == 0 {
		return 1
	}
	return s.F
}

// protectStates enumerates the failure states with at most F failed links.
func protectStates(numEdges, F int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		out = append(out, append([]int(nil), cur...))
		if len(cur) == F {
			return
		}
		for e := start; e < numEdges; e++ {
			rec(e+1, append(cur, e))
		}
	}
	rec(0, nil)
	return out
}

// Route implements scheme.Scheme.
func (s *Scheme) Route(inst *te.Instance) (*te.Routing, error) {
	if len(inst.Classes) != 1 {
		return nil, fmt.Errorf("ffc: single traffic class required, got %d", len(inst.Classes))
	}
	g := inst.Topo.G
	states := protectStates(g.NumEdges(), s.f())

	p := lp.NewProblem()
	xcol := make([][]int, len(inst.Pairs))
	bcol := make([]int, len(inst.Pairs))
	for i := range inst.Pairs {
		d := inst.Demand[0][i]
		xcol[i] = make([]int, len(inst.Tunnels[0][i]))
		ub := lp.Inf
		if d <= 0 {
			ub = 0
		}
		for t := range inst.Tunnels[0][i] {
			xcol[i][t] = p.AddCol(fmt.Sprintf("x[%d,%d]", i, t), 0, ub, 0)
		}
		bub := d
		if d <= 0 {
			bub = 0
		}
		// Maximize total granted bandwidth.
		bcol[i] = p.AddCol(fmt.Sprintf("b[%d]", i), 0, bub, -1)
	}
	// For every protected state: granted bandwidth fits on live tunnels,
	// and live-tunnel allocations respect live-link capacities.
	for si, failed := range states {
		failedSet := map[int]bool{}
		for _, e := range failed {
			failedSet[e] = true
		}
		alive := func(e int) bool { return !failedSet[e] }
		// live[i][t] is tunnel t's column when pair i is demanded and the
		// tunnel survives the state, −1 otherwise: the capacity rows see
		// only the live columns.
		live := make([][]int, len(inst.Pairs))
		for i := range inst.Pairs {
			live[i] = make([]int, len(inst.Tunnels[0][i]))
			for t := range live[i] {
				live[i][t] = -1
			}
			if inst.Demand[0][i] <= 0 {
				continue
			}
			var es []lp.Entry
			for t, path := range inst.Tunnels[0][i] {
				if path.Alive(alive) {
					live[i][t] = xcol[i][t]
					es = append(es, lp.Entry{Col: xcol[i][t], Coef: 1})
				}
			}
			// b_i ≤ Σ_{live t} x_t: the grant survives the failure state.
			es = append(es, lp.Entry{Col: bcol[i], Coef: -1})
			p.AddGE(fmt.Sprintf("live[%d,%d]", si, i), 0, es...)
		}
		te.CapacityRows(p, inst, [][][]int{live}, inst.Capacity)
	}
	// Two-phase objective: first maximize the common granted fraction λ
	// (plain throughput maximization has unfair degenerate optima — one
	// flow can absorb the whole budget), then maximize total grant with
	// λ* pinned as a floor.
	lam := p.AddCol("lambda", 0, 1, 0)
	for i := range inst.Pairs {
		d := inst.Demand[0][i]
		if d <= 0 {
			continue
		}
		p.AddGE(fmt.Sprintf("fair[%d]", i), 0,
			lp.Entry{Col: bcol[i], Coef: 1}, lp.Entry{Col: lam, Coef: -d})
	}
	for i := range inst.Pairs {
		p.SetCost(bcol[i], 0)
	}
	p.SetCost(lam, -1)
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("ffc: phase 1: %v", sol.Status)
	}
	lamStar := sol.X[lam]
	p.SetCost(lam, 0)
	p.SetColBounds(lam, lamStar-lp.DefaultTol, 1)
	for i := range inst.Pairs {
		if inst.Demand[0][i] > 0 {
			p.SetCost(bcol[i], -1)
		}
	}
	sol, err = p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("ffc: phase 2: %v", sol.Status)
	}
	s.Granted = make([]float64, len(inst.Pairs))
	for i := range inst.Pairs {
		s.Granted[i] = sol.X[bcol[i]]
	}

	// Emit the routing for the instance's probabilistic scenarios:
	// proportional rescale of the grant onto live tunnels, then a uniform
	// per-scenario throttle if a state beyond the protection level
	// oversubscribes some link (the network would drop that traffic).
	r := te.NewRouting(inst)
	for q, scen := range inst.Scenarios {
		aliveFn := scen.Alive()
		load := make([]float64, g.NumEdges())
		for i := range inst.Pairs {
			if inst.Demand[0][i] <= 0 {
				continue
			}
			liveTotal := 0.0
			for t, path := range inst.Tunnels[0][i] {
				if path.Alive(aliveFn) {
					liveTotal += sol.X[xcol[i][t]]
				}
			}
			if liveTotal <= 0 {
				continue
			}
			send := s.Granted[i]
			if send > liveTotal {
				send = liveTotal
			}
			for t, path := range inst.Tunnels[0][i] {
				if !path.Alive(aliveFn) {
					continue
				}
				share := send * sol.X[xcol[i][t]] / liveTotal
				r.X[q][0][i][t] = share
				for _, e := range path.Edges {
					load[e] += share
				}
			}
		}
		// Uniform throttle against overload in unprotected states.
		rho := 1.0
		for e := 0; e < g.NumEdges(); e++ {
			cap := g.Edge(e).Capacity
			if scen.IsFailed(e) || cap <= 0 {
				continue
			}
			if load[e] > cap && load[e]/cap > rho {
				rho = load[e] / cap
			}
		}
		if rho > 1 {
			for i := range inst.Pairs {
				for t := range r.X[q][0][i] {
					r.X[q][0][i][t] /= rho
				}
			}
		}
	}
	return r, nil
}
