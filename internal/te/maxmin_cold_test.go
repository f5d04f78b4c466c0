package te_test

import (
	"fmt"
	"math"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/te"
)

// maxMinCold is the reference implementation of te.MaxMin that the one-LP,
// re-solved-in-place production path is tested against: the body te.MaxMin
// had before that rewrite, kept verbatim (its level loop builds two fresh
// lp.Problems per water-filling level and solves each from the slack
// basis), ported only to te's exported API. It is reachable from no
// production path. It keeps that body's two known defects on purpose, so
// the battery shows what the rewrite changed: the LP1-infeasible branch
// skips the freeze step, and relaxCold ignores earlier classes' bandwidth
// under FixRoutes.
func maxMinCold(inst *te.Instance, scen failure.Scenario, opt te.MaxMinOptions) (*te.MaxMinResult, error) {
	demandOf := func(f int) float64 {
		if opt.Demands != nil {
			return opt.Demands[f]
		}
		return inst.FlowDemand(f)
	}
	res := &te.MaxMinResult{
		Frac: make([]float64, inst.NumFlows()),
		X:    make([][][]float64, len(inst.Classes)),
	}
	for k := range inst.Classes {
		res.X[k] = make([][]float64, len(inst.Pairs))
		for i := range inst.Pairs {
			res.X[k][i] = make([]float64, len(inst.Tunnels[k][i]))
		}
	}
	fixedUse := make([]float64, inst.Topo.G.NumEdges())
	maxD := 0.0
	for f := 0; f < inst.NumFlows(); f++ {
		if d := demandOf(f); d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		return res, nil
	}
	levels := opt.Levels
	if levels == nil {
		top := 1.0
		if opt.Domain == te.RateDomain {
			top = maxD
		}
		for i := 8; i >= 0; i-- {
			levels = append(levels, top/math.Pow(2, float64(i)))
		}
	}

	// target fraction for flow f at level α.
	targetFrac := func(f int, alpha float64) float64 {
		d := demandOf(f)
		var frac float64
		if opt.Domain == te.RateDomain {
			frac = alpha / d
		} else {
			frac = alpha
		}
		if frac > 1 {
			frac = 1
		}
		if opt.MinFrac != nil && opt.MinFrac[f] > frac {
			frac = opt.MinFrac[f]
		}
		return frac
	}

	achieved := make([]float64, inst.NumFlows()) // fraction pinned so far
	for ci := range inst.Classes {
		// Active flows of this class.
		var active []int
		for i := range inst.Pairs {
			f := inst.FlowID(ci, i)
			if demandOf(f) > 0 && inst.FlowConnected(ci, i, scen) {
				active = append(active, f)
			}
		}
		if len(active) == 0 {
			continue
		}
		frozen := make(map[int]float64)
		classList := []int{ci}
		if !opt.FixRoutes {
			// Joint mode routes every class's variables together so that
			// earlier classes' floors and later classes' critical
			// reservations can be expressed in the same LP.
			classList = nil
			for k := range inst.Classes {
				classList = append(classList, k)
			}
		}
		var lastAlloc *te.Alloc
		var lastSol *lp.Solution
		prev := 0.0
		for _, alpha := range levels {
			// Each level runs two LPs (a refinement over plain SWAN that
			// tightens the approximation within a level):
			//   LP1 maximizes the common fraction λ ∈ [prev, α] every
			//       unfrozen flow can reach simultaneously;
			//   LP2 maximizes total volume with λ* as the per-flow floor.
			// Flows that still end below the level target are frozen —
			// they are bottlenecked, exactly the max-min waterfilling rule.
			pin := func(a *te.Alloc, f int) bool { // returns true if pinned
				k, i := inst.FlowOf(f)
				es := a.FlowEntries(k, i)
				d := demandOf(f)
				if fr, ok := frozen[f]; ok {
					// Tiny downward slack keeps re-solves feasible when the
					// frozen value carries numerical noise.
					slack := 1e-6 * (1 + fr*d)
					a.LP.AddRow(fmt.Sprintf("fz[%d]", f), fr*d-slack, fr*d, es...)
					return true
				}
				return false
			}
			addCrossClassRows := func(a *te.Alloc) {
				if opt.FixRoutes {
					return
				}
				// Earlier classes keep their achieved volume (floor only:
				// they may pick up more residual capacity).
				for k := 0; k < ci; k++ {
					for i := range inst.Pairs {
						f := inst.FlowID(k, i)
						if achieved[f] <= 0 {
							continue
						}
						es := a.FlowEntries(k, i)
						a.LP.AddGE(fmt.Sprintf("hi[%d]", f), achieved[f]*demandOf(f), es...)
					}
				}
				// Later classes' critical reservations are carved out now:
				// the offline phase promised those flows their bandwidth, so
				// this class's residual filling must not consume it (§4.3).
				for k := ci + 1; k < len(inst.Classes); k++ {
					for i := range inst.Pairs {
						f := inst.FlowID(k, i)
						mf := coldMinFrac(opt, f)
						if mf <= 0 || demandOf(f) <= 0 || !inst.FlowConnected(k, i, scen) {
							continue
						}
						// The reservation is held at exactly its promised
						// volume; the flow's own class round distributes any
						// extra.
						v := mf * demandOf(f)
						es := a.FlowEntries(k, i)
						a.LP.AddRow(fmt.Sprintf("rsv[%d]", f), v-1e-9*(1+v), v, es...)
					}
				}
			}

			// Level interval per flow in bandwidth units; a common progress
			// variable θ ∈ [0,1] interpolates every flow between its lower
			// and upper level target (this linearizes the demand caps in
			// rate domain and the critical-flow minimums in both domains).
			loF := make(map[int]float64, len(active))
			hiF := make(map[int]float64, len(active))
			for _, f := range active {
				if _, ok := frozen[f]; ok {
					continue
				}
				d := demandOf(f)
				loF[f] = targetFrac(f, prev) * d
				hiF[f] = targetFrac(f, alpha) * d
				if hiF[f] < loF[f] {
					hiF[f] = loF[f]
				}
			}

			// --- LP1: max common progress θ ---
			a1 := te.NewAlloc(inst, scen, classList, coldFixedUse(opt, fixedUse))
			theta := a1.LP.AddCol("theta", 0, 1, -1)
			for _, f := range active {
				if pin(a1, f) {
					continue
				}
				k, i := inst.FlowOf(f)
				es := a1.FlowEntries(k, i)
				span := hiF[f] - loF[f]
				a1.LP.AddGE(fmt.Sprintf("th[%d]", f), loF[f],
					append(append([]lp.Entry(nil), es...), lp.Entry{Col: theta, Coef: -span})...)
				a1.LP.AddLE(fmt.Sprintf("cap1[%d]", f), hiF[f], es...)
			}
			addCrossClassRows(a1)
			sol1, err := a1.LP.SolveOpts(opt.LP)
			if err != nil {
				return nil, err
			}
			if sol1.Status != lp.Optimal {
				// Infeasibility can only come from MinFrac minimums the
				// scenario cannot support; relax every floor uniformly.
				sol, err := relaxCold(inst, classList, active, frozen, achieved, opt, scen, ci, prev)
				if err != nil {
					return nil, err
				}
				lastAlloc, lastSol = a1, sol
				prev = alpha
				continue
			}
			thetaStar := sol1.X[theta]

			// --- LP2: max total volume with the θ* floor ---
			a2 := te.NewAlloc(inst, scen, classList, coldFixedUse(opt, fixedUse))
			for _, f := range active {
				if pin(a2, f) {
					continue
				}
				k, i := inst.FlowOf(f)
				es := a2.FlowEntries(k, i)
				lo := loF[f] + thetaStar*(hiF[f]-loF[f]) - 1e-9
				if lo < 0 {
					lo = 0
				}
				a2.LP.AddRow(fmt.Sprintf("lvl[%d]", f), lo, hiF[f], es...)
				for _, e := range es {
					a2.LP.SetCost(e.Col, a2.LP.Cost(e.Col)-1)
				}
			}
			addCrossClassRows(a2)
			sol2, err := a2.LP.SolveOpts(opt.LP)
			if err != nil {
				return nil, err
			}
			if sol2.Status != lp.Optimal {
				// The θ* floor can sit a hair outside the feasible region
				// under numerical noise; relax the floors uniformly.
				sol2, err = relaxCold(inst, classList, active, frozen, achieved, opt, scen, ci, prev)
				if err != nil {
					return nil, fmt.Errorf("te: max-min level %v LP2: %w", alpha, err)
				}
			}
			// Freeze flows that failed to reach the level.
			for _, f := range active {
				if _, ok := frozen[f]; ok {
					continue
				}
				k, i := inst.FlowOf(f)
				got := 0.0
				for t := range inst.Tunnels[k][i] {
					if c := a2.XVar(k, i, t); c >= 0 {
						got += sol2.X[c]
					}
				}
				d := demandOf(f)
				fr := got / d
				if fr > 1 {
					fr = 1
				}
				if fr < targetFrac(f, alpha)-1e-7 {
					frozen[f] = fr
				}
			}
			lastAlloc, lastSol = a2, sol2
			prev = alpha
		}
		// Record achieved fractions and the routing from the last solve.
		for _, f := range active {
			k, i := inst.FlowOf(f)
			got := 0.0
			for t := range inst.Tunnels[k][i] {
				if c := lastAlloc.XVar(k, i, t); c >= 0 {
					got += lastSol.X[c]
				}
			}
			fr := got / demandOf(f)
			if fr > 1 {
				fr = 1
			}
			achieved[f] = fr
		}
		// Extract routing for this class and (in joint mode) every earlier
		// class; later classes are rewritten by their own rounds.
		for _, k := range classList {
			if k > ci {
				continue
			}
			for i := range inst.Pairs {
				res.X[k][i] = lastAlloc.ExtractX(lastSol, k, i)
			}
		}
		if opt.FixRoutes {
			lastAlloc.EdgeUse(lastSol, fixedUse)
		}
	}
	copy(res.Frac, achieved)
	return res, nil
}

func coldFixedUse(opt te.MaxMinOptions, fixedUse []float64) []float64 {
	if opt.FixRoutes {
		if opt.FixedUse == nil {
			return fixedUse
		}
		sum := make([]float64, len(fixedUse))
		for e := range sum {
			sum[e] = fixedUse[e] + opt.FixedUse[e]
		}
		return sum
	}
	return opt.FixedUse
}

// relaxAndSolve scales every floor — frozen values, the current class's
// level/critical minimums, earlier classes' achieved volumes and later
// classes' reservations — down by a common maximal λ ∈ [0,1] and returns
// the resulting allocation. It only runs when the floors are infeasible,
// which the offline phase's capacity-consistent promises make a numerical
// edge case rather than the common path.
//
// NewAlloc with identical arguments creates the tunnel columns in the same
// order as the caller's Alloc, and λ is appended after them, so the caller
// can read tunnel values from the returned solution using its own column
// indices.
func relaxCold(inst *te.Instance, classList, active []int, frozen map[int]float64, achieved []float64, opt te.MaxMinOptions, scen failure.Scenario, ci int, prev float64) (*lp.Solution, error) {
	demandOf := func(f int) float64 {
		if opt.Demands != nil {
			return opt.Demands[f]
		}
		return inst.FlowDemand(f)
	}
	b := te.NewAlloc(inst, scen, classList, opt.FixedUse)
	lam := b.LP.AddCol("lambda", 0, 1, -1)
	addFloor := func(k, i int, lo float64) {
		if lo <= 0 {
			return
		}
		es := b.FlowEntries(k, i)
		es = append(es, lp.Entry{Col: lam, Coef: -lo})
		b.LP.AddGE(fmt.Sprintf("relax[%d,%d]", k, i), 0, es...)
	}
	for _, f := range active {
		k, i := inst.FlowOf(f)
		d := demandOf(f)
		if fr, ok := frozen[f]; ok {
			addFloor(k, i, fr*d)
			continue
		}
		lo := coldMinFrac(opt, f)
		if prev > lo && opt.Domain == te.FractionDomain {
			lo = prev
		}
		addFloor(k, i, lo*d)
	}
	if !opt.FixRoutes {
		for k := 0; k < ci; k++ {
			for i := range inst.Pairs {
				f := inst.FlowID(k, i)
				addFloor(k, i, achieved[f]*demandOf(f))
			}
		}
		for k := ci + 1; k < len(inst.Classes); k++ {
			for i := range inst.Pairs {
				f := inst.FlowID(k, i)
				if demandOf(f) > 0 && inst.FlowConnected(k, i, scen) {
					addFloor(k, i, coldMinFrac(opt, f)*demandOf(f))
				}
			}
		}
	}
	sol, err := b.LP.SolveOpts(opt.LP)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("te: max-min relaxation failed: %v", sol.Status)
	}
	// Accept the relaxed allocation as-is for this level.
	return sol, nil
}

func coldMinFrac(opt te.MaxMinOptions, f int) float64 {
	if opt.MinFrac == nil {
		return 0
	}
	return opt.MinFrac[f]
}
