package flexile

import (
	"fmt"
	"math"

	"flexile/internal/eval"
	"flexile/internal/te"
)

// Online computes the bandwidth allocation for one failure scenario
// (§4.3): critical flows are first guaranteed the bandwidth the offline
// phase promised them (loss ≤ PercLoss of their class), then residual
// capacity is distributed with a max-min allocation on flow loss, higher
// priority classes first. Unlike SWAN, the volume — not the routing — of a
// higher class is pinned when a lower class is solved, so routing for all
// classes is decided jointly.
func Online(inst *te.Instance, off *OfflineResult, q int, opt Options) (*te.MaxMinResult, error) {
	mo, err := OnlineOptions(inst, off, q, opt)
	if err != nil {
		return nil, err
	}
	return te.MaxMin(inst, inst.Scenarios[q], mo)
}

// OnlineOptions is the max-min problem Online solves for scenario q: the
// floors the offline result promises (critical flows' pre-decided
// bandwidth, the γ bound) over the scenario's demands. Split out so tests
// can hand the same problem to a reference solver.
func OnlineOptions(inst *te.Instance, off *OfflineResult, q int, opt Options) (te.MaxMinOptions, error) {
	if q < 0 || q >= len(inst.Scenarios) {
		return te.MaxMinOptions{}, fmt.Errorf("flexile: scenario %d out of range", q)
	}
	opt = opt.withDefaults()
	minFrac := make([]float64, inst.NumFlows())
	// A degraded offline result may lack pieces — no result at all, no
	// critical set, or no ScenLossOpt vector. The online phase must still
	// produce a feasible allocation: missing data means no floor is
	// promised for the affected flows, never a panic.
	if off == nil {
		off = &OfflineResult{}
	}
	for k := range inst.Classes {
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			if off.Critical == nil || !off.Critical.Get(f, q) {
				continue
			}
			// The offline subproblem pre-decided this flow's bandwidth in
			// this scenario (1 − l_fq)·d_f; the online phase guarantees
			// exactly that, which keeps the promise jointly feasible even
			// in critical scenarios whose loss exceeds the class's
			// percentile (the percentile skips the worst critical
			// scenarios, the per-scenario allocation must not).
			promised := 1.0
			if off.SubLosses != nil && f < len(off.SubLosses) && q < len(off.SubLosses[f]) {
				promised = 1 - off.SubLosses[f][q]
			}
			if promised < 0 {
				promised = 0
			}
			minFrac[f] = promised
		}
	}
	// γ generalization (§4.4): every connected flow — critical or not —
	// is kept within γ of the scenario's optimal ScenLoss. A missing
	// ScenLossOpt entry (degraded offline result) promises no floor.
	if opt.Gamma >= 0 && q < len(off.ScenLossOpt) {
		floor := 1 - opt.Gamma - off.ScenLossOpt[q]
		if floor > 0 {
			scen := inst.Scenarios[q]
			for k := range inst.Classes {
				for i := range inst.Pairs {
					f := inst.FlowID(k, i)
					if inst.DemandIn(k, i, q) > 0 && inst.FlowConnected(k, i, scen) && minFrac[f] < floor {
						minFrac[f] = floor
					}
				}
			}
		}
	}
	return te.MaxMinOptions{
		Domain:  te.FractionDomain,
		MinFrac: minFrac,
		Demands: inst.ScenDemandVector(q),
		LP:      opt.LP,
	}, nil
}

// Scheme is the complete Flexile system: the offline decomposition run
// once, then the online allocation applied to every scenario.
type Scheme struct {
	Opt Options
	// Offline, when set after Route, exposes the offline result for
	// inspection (convergence history, critical sets, timing).
	Offline *OfflineResult
}

// Name implements scheme.Scheme.
func (s *Scheme) Name() string { return "Flexile" }

// Route implements scheme.Scheme.
func (s *Scheme) Route(inst *te.Instance) (*te.Routing, error) {
	off, err := Offline(inst, s.Opt)
	if err != nil {
		return nil, err
	}
	s.Offline = off
	r := te.NewRouting(inst)
	for q := range inst.Scenarios {
		res, err := Online(inst, off, q, s.Opt)
		if err != nil {
			return nil, err
		}
		for k := range inst.Classes {
			for i := range inst.Pairs {
				copy(r.X[q][k][i], res.X[k][i])
			}
		}
	}
	return r, nil
}

// MaxZeroLossScale searches (by bisection) for the largest factor the given
// class's demands can be scaled by while the scheme still achieves zero
// PercLoss for every class — the appendix Fig. 18 experiment. The instance
// is not modified. eps is the relative bisection tolerance.
func MaxZeroLossScale(inst *te.Instance, class int, route func(*te.Instance) ([][]float64, error), lo, hi, eps float64) (float64, error) {
	ok := func(scale float64) (bool, error) {
		trial := inst.Clone()
		trial.ScaleClassDemands(class, scale)
		losses, err := route(trial)
		if err != nil {
			return false, err
		}
		for k := range trial.Classes {
			if pl := eval.PercLoss(trial, losses, k); pl > 1e-6 {
				return false, nil
			}
		}
		return true, nil
	}
	good, err := ok(lo)
	if err != nil {
		return 0, err
	}
	if !good {
		return 0, nil
	}
	for hi-lo > eps*math.Max(1, hi) {
		mid := (lo + hi) / 2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
