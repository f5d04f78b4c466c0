package flexile

import (
	"context"
	"fmt"

	"flexile/internal/te"
)

// SequentialDesign implements §4.4's "explicit priority with multiple
// traffic classes": when the PercLoss of low-priority traffic is
// subordinate even to sending *non-critical* high-priority traffic, the
// design proceeds strictly class by class —
//
//  1. design class k's critical scenarios considering only its own
//     traffic, on the capacity left over by higher classes;
//  2. in every scenario, push as much class-k traffic as possible
//     (critical promises first, then max-min residual within the class);
//  3. subtract class k's per-scenario usage from the capacity the next
//     class sees.
//
// It returns the merged offline result (critical sets and per-class
// PercLoss from the sequential subproblems) and the complete routing the
// sequential allocation produced.
func SequentialDesign(inst *te.Instance, opt Options) (*OfflineResult, *te.Routing, error) {
	nq := len(inst.Scenarios)
	if nq == 0 {
		return nil, nil, fmt.Errorf("flexile: instance has no scenarios")
	}
	g := inst.Topo.G
	merged := &OfflineResult{
		Critical:    NewCriticalSet(inst.NumFlows(), nq),
		PercLoss:    make([]float64, len(inst.Classes)),
		ScenLossOpt: make([]float64, nq),
		SubLosses:   make([][]float64, inst.NumFlows()),
	}
	for f := range merged.SubLosses {
		merged.SubLosses[f] = make([]float64, nq)
	}
	routing := te.NewRouting(inst)

	// Per-scenario capacity already claimed by higher classes.
	fixedUse := make([][]float64, nq)
	for q := range fixedUse {
		fixedUse[q] = make([]float64, g.NumEdges())
	}

	for k := range inst.Classes {
		// Class-k-only view: zero out every other class's demand.
		view := inst.Clone()
		for kk := range view.Classes {
			if kk == k {
				continue
			}
			for i := range view.Pairs {
				view.Demand[kk][i] = 0
			}
			for q := range view.ScenDemand {
				if view.ScenDemand[q] == nil {
					continue
				}
				for i := range view.Pairs {
					view.ScenDemand[q][view.FlowID(kk, i)] = 0
				}
			}
		}
		off, err := offline(context.Background(), view, opt, fixedUse)
		if err != nil {
			return nil, nil, fmt.Errorf("flexile: sequential design class %d: %w", k, err)
		}
		merged.PercLoss[k] = off.PercLoss[k]
		merged.Iterations += off.Iterations
		merged.SubproblemSolves += off.SubproblemSolves
		merged.Elapsed += off.Elapsed
		if k == 0 {
			merged.ScenLossOpt = off.ScenLossOpt
		}
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			copy(merged.SubLosses[f], off.SubLosses[f])
			for q := 0; q < nq; q++ {
				merged.Critical.Set(f, q, off.Critical.Get(f, q))
			}
		}
		// Step 2: allocate class k in every scenario (its critical promises
		// as floors, max-min on loss for the rest of the class), on the
		// residual capacity; record the usage for the next class.
		for q := range inst.Scenarios {
			minFrac := make([]float64, inst.NumFlows())
			for i := range inst.Pairs {
				f := inst.FlowID(k, i)
				if off.Critical.Get(f, q) {
					p := 1 - off.SubLosses[f][q]
					if p < 0 {
						p = 0
					}
					minFrac[f] = p
				}
			}
			res, err := te.MaxMin(view, inst.Scenarios[q], te.MaxMinOptions{
				Domain:   te.FractionDomain,
				MinFrac:  minFrac,
				Demands:  view.ScenDemandVector(q),
				FixedUse: fixedUse[q],
			})
			if err != nil {
				return nil, nil, fmt.Errorf("flexile: sequential allocation class %d scenario %d: %w", k, q, err)
			}
			for i := range inst.Pairs {
				copy(routing.X[q][k][i], res.X[k][i])
				for t, x := range res.X[k][i] {
					if x <= 0 {
						continue
					}
					for _, e := range inst.Tunnels[k][i][t].Edges {
						fixedUse[q][e] += x
					}
				}
			}
		}
	}
	return merged, routing, nil
}

// SequentialScheme wraps SequentialDesign as a Scheme.
type SequentialScheme struct {
	Opt Options
	// Offline is populated after Route.
	Offline *OfflineResult
}

// Name implements scheme.Scheme.
func (s *SequentialScheme) Name() string { return "Flexile-Sequential" }

// Route implements scheme.Scheme.
func (s *SequentialScheme) Route(inst *te.Instance) (*te.Routing, error) {
	off, r, err := SequentialDesign(inst, s.Opt)
	if err != nil {
		return nil, err
	}
	s.Offline = off
	return r, nil
}
