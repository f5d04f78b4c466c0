package te

import (
	"context"
	"fmt"
	"math"
	"time"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/obs"
)

// MaxMinDomain selects what quantity the max-min waterfilling levels
// operate on.
type MaxMinDomain int

const (
	// FractionDomain raises every flow's fraction of demand together —
	// equivalently a max-min allocation on flow loss, the adaptation
	// Flexile's online phase makes to SWAN (§4.3).
	FractionDomain MaxMinDomain = iota
	// RateDomain raises every flow's absolute rate together — SWAN's
	// original max-min approximation.
	RateDomain
)

// MaxMinOptions configures the approximate max-min allocation.
type MaxMinOptions struct {
	// Domain picks fraction-of-demand (Flexile) or absolute-rate (SWAN)
	// waterfilling. Default FractionDomain.
	Domain MaxMinDomain
	// MinFrac, when non-nil, gives a per-flow lower bound on the fraction
	// of demand that must be allocated (Flexile's critical flows). Indexed
	// by flow id.
	MinFrac []float64
	// FixRoutes reproduces SWAN's behaviour of freezing both the
	// allocation and the routing of a higher-priority class before a lower
	// one is solved. When false (Flexile's optimization, §4.3), only the
	// achieved volume of the higher class is pinned and routing for all
	// classes is decided jointly.
	FixRoutes bool
	// Demands, when non-nil, overrides the instance's base demands (per
	// flow id) — used with per-scenario traffic matrices (§4.4) and with
	// sequential multi-class design.
	Demands []float64
	// FixedUse, when non-nil, is per-edge bandwidth already claimed
	// outside this allocation (sequential multi-class design); it is
	// subtracted from link capacities.
	FixedUse []float64
}

// MaxMinResult reports the allocation.
type MaxMinResult struct {
	// Frac[f] is the fraction of demand allocated to flow f.
	Frac []float64
	// X[k][i][t] is the per-tunnel allocation.
	X [][][]float64
}

// The slacks MaxMin grants between one solve and the next. Every lower bound
// a solve is handed is a volume an earlier solve of the same call delivered
// (or, before any solve has carried the flow, the caller's MinFrac promise),
// lowered by one of these — so a level can only be infeasible when the
// caller's promises are, never because of noise in the previous answer.
//
// They must satisfy lp.DefaultTol ≤ floorSlack < freezeTol and floorSlack ≤
// frozenSlack (TestSlackOrdering):
//   - a floor has to give way by at least what the solver calls feasible,
//     or the point it was read from may not satisfy it;
//   - a flow sitting exactly on its slackened floor has, as far as the
//     freeze rule can tell, reached its target — the slack must not by
//     itself freeze a flow (for demands ≥ floorSlack/freezeTol = 0.01);
//   - a frozen row is a floor too and gives way at least as much.
//
// The converse hazard — a flow within freezeTol of its target is not frozen,
// so its next floor must give way by up to that much — is handled by
// construction rather than by a constant: the floor is the smaller of the
// level target and what the flow actually got (maxMinRun.floor).
const (
	// floorSlack·(1+v) is subtracted from every floor of volume v: the level
	// floors of LP1 and LP2, earlier classes' held volumes, and later
	// classes' reservations.
	floorSlack = 1e-9
	// freezeTol is how far (in fraction of demand) below its level target a
	// flow may end and still count as having reached it.
	freezeTol = 1e-7
	// frozenSlack·(1+v) is the width of the window [v−slack, v] a frozen
	// flow's volume is held in for the rest of its class round.
	frozenSlack = 1e-6
)

// MaxMin runs the approximate max-min allocation for one scenario,
// processing classes in priority order (class 0 first). Disconnected flows
// and zero-demand flows receive zero.
//
// It is a pure function of its arguments: one LP is built per class round
// and re-solved in place level after level (DESIGN.md §12), but the solver
// workspace lives and dies inside the call, so the answer never depends on
// which scenarios were solved before or concurrently.
func MaxMin(inst *Instance, scen failure.Scenario, opt MaxMinOptions) (*MaxMinResult, error) {
	return MaxMinCtx(context.Background(), inst, scen, opt)
}

// MaxMinCtx is MaxMin under a context: the LP solves account to its
// collector (obs.From) and stop when it is cancelled, and when it carries a
// request trace (obs.TraceFrom) every class round, level and LP solve
// records a nested span on that trace. The answer does not depend on ctx.
func MaxMinCtx(ctx context.Context, inst *Instance, scen failure.Scenario, opt MaxMinOptions) (*MaxMinResult, error) {
	nf := inst.NumFlows()
	res := &MaxMinResult{
		Frac: make([]float64, nf),
		X:    make([][][]float64, len(inst.Classes)),
	}
	for k := range inst.Classes {
		res.X[k] = make([][]float64, len(inst.Pairs))
		for i := range inst.Pairs {
			res.X[k][i] = make([]float64, len(inst.Tunnels[k][i]))
		}
	}
	run := &maxMinRun{
		inst:     inst,
		scen:     scen,
		opt:      opt,
		demand:   make([]float64, nf),
		achieved: res.Frac,
		carried:  make([]float64, nf),
		fixedUse: make([]float64, inst.Topo.G.NumEdges()),
		tr:       obs.TraceFrom(ctx),
	}
	maxD := 0.0
	for f := range run.demand {
		d := inst.FlowDemand(f)
		if opt.Demands != nil {
			d = opt.Demands[f]
		}
		run.demand[f] = d
		run.carried[f] = -1
		if d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		return res, nil
	}
	// The waterfilling ladder: nine levels doubling up to the cap (1 for
	// fractions, the largest demand for rates), SWAN's U = 2.
	top := 1.0
	if opt.Domain == RateDomain {
		top = maxD
	}
	for i := 8; i >= 0; i-- {
		run.levels = append(run.levels, top/math.Pow(2, float64(i)))
	}
	for ci := range inst.Classes {
		began := time.Now()
		if err := run.classRound(ctx, ci, res); err != nil {
			return nil, err
		}
		run.tr.AddSpan("class-round", began, time.Now(), true, "class", ci)
	}
	return res, nil
}

// maxMinRun is the state one MaxMin call threads through its class rounds.
type maxMinRun struct {
	inst   *Instance
	scen   failure.Scenario
	opt    MaxMinOptions
	demand []float64 // per flow, with opt.Demands applied
	levels []float64
	// achieved[f] is the fraction of demand flow f's own class round settled
	// on (it is MaxMinResult.Frac).
	achieved []float64
	// carried[f] is the volume the latest accepted solve delivered to flow
	// f, or −1 while no solve of this call has carried the flow.
	carried []float64
	// fixedUse is, under FixRoutes, the per-edge bandwidth earlier classes
	// hold.
	fixedUse []float64
	// tr is the request trace the call records its spans on, or nil.
	tr *obs.Trace
}

// targetFrac is the fraction of demand flow f is owed at level alpha.
func (r *maxMinRun) targetFrac(f int, alpha float64) float64 {
	frac := alpha
	if r.opt.Domain == RateDomain {
		frac = alpha / r.demand[f]
	}
	if frac > 1 {
		frac = 1
	}
	if mf := minFracOf(r.opt, f); mf > frac {
		frac = mf
	}
	return frac
}

// floor turns the volume want that flow f is owed into the lower bound a
// solve is handed: want less floorSlack, and no more than the flow was last
// delivered. Anchoring the slack to want rather than to the delivered volume
// keeps a flow that sits on its floor level after level from ratcheting
// down.
func (r *maxMinRun) floor(f int, want float64) float64 {
	want -= floorSlack * (1 + want)
	if c := r.carried[f]; c >= 0 && c < want {
		want = c
	}
	if want < 0 {
		return 0
	}
	return want
}

// residual is the bandwidth outside this call's LPs: the caller's FixedUse
// plus, under FixRoutes, what earlier classes hold.
func (r *maxMinRun) residual() []float64 {
	if !r.opt.FixRoutes {
		return r.opt.FixedUse
	}
	if r.opt.FixedUse == nil {
		return r.fixedUse
	}
	sum := make([]float64, len(r.fixedUse))
	for e := range sum {
		sum[e] = r.fixedUse[e] + r.opt.FixedUse[e]
	}
	return sum
}

// carry records the volume x delivers to every flow a has columns for.
func (r *maxMinRun) carry(a *Alloc, classList []int, x []float64) {
	for _, k := range classList {
		for i := range r.inst.Pairs {
			got := 0.0
			for _, c := range a.xIdx[k][i] {
				if c >= 0 {
					got += x[c]
				}
			}
			r.carried[r.inst.FlowID(k, i)] = got
		}
	}
}

// classRound water-fills class ci. It builds one LP — tunnel columns and
// capacity rows (NewAlloc), a progress column θ, one range row
// Σx_f − span_f·θ per active flow, and the rows that hold earlier classes'
// volumes and later classes' reservations — and solves every level as a
// bound/cost variant of it, each solve continuing from the basis and the
// factorization the previous one ended on. A level is two solves (a
// refinement over plain SWAN that tightens the approximation within a
// level): with lo_f and hi_f the volumes flow f is owed at the previous and
// at this level, and span_f = hi_f − lo_f,
//
//	LP1 pins every unfrozen row to its floor, Σx_f = floor_f + span_f·θ,
//	    and maximizes the common progress θ ∈ [0,1] (this linearizes the
//	    demand caps in rate domain and the critical-flow minimums in both);
//	    pinning loses nothing, since shrinking a flow to its target only
//	    frees capacity, and it drops the separate cap row per flow;
//	LP2 fixes θ = θ* and maximizes total volume with the row opened upward
//	    to hi_f.
//
// Flows that still end below the level target are frozen — they are
// bottlenecked, exactly the max-min waterfilling rule: the same row with its
// θ coefficient zeroed and its bounds held at the frozen volume.
func (r *maxMinRun) classRound(ctx context.Context, ci int, res *MaxMinResult) error {
	inst, opt := r.inst, r.opt
	var active []int
	for i := range inst.Pairs {
		f := inst.FlowID(ci, i)
		if r.demand[f] > 0 && inst.FlowConnected(ci, i, r.scen) {
			active = append(active, f)
		}
	}
	if len(active) == 0 {
		return nil
	}
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
	residual := r.residual()
	a := NewAlloc(inst, r.scen, classList, residual)
	theta := a.LP.AddCol("theta", 0, 1, 0)
	nf := inst.NumFlows()
	row := make([]int, nf) // LP row of an active flow
	for _, f := range active {
		k, i := inst.FlowOf(f)
		// The explicit zero reserves θ's slot in the compiled column.
		row[f] = a.LP.AddRow("flow", 0, 0, append(a.FlowEntries(k, i), lp.Entry{Col: theta})...)
	}
	if !opt.FixRoutes {
		// Earlier classes keep their achieved volume (floor only: they may
		// pick up more residual capacity).
		for k := 0; k < ci; k++ {
			for i := range inst.Pairs {
				f := inst.FlowID(k, i)
				if r.achieved[f] > 0 {
					a.LP.AddGE("hold", r.floor(f, r.achieved[f]*r.demand[f]), a.FlowEntries(k, i)...)
				}
			}
		}
		// Later classes' critical reservations are carved out now: the
		// offline phase promised those flows their bandwidth, so this
		// class's residual filling must not consume it (§4.3). The
		// reservation is held at its promised volume; the flow's own class
		// round distributes any extra.
		for k := ci + 1; k < len(inst.Classes); k++ {
			for i := range inst.Pairs {
				f := inst.FlowID(k, i)
				v := minFracOf(opt, f) * r.demand[f]
				if v > 0 && inst.FlowConnected(k, i, r.scen) {
					a.LP.AddRow("rsv", r.floor(f, v), v, a.FlowEntries(k, i)...)
				}
			}
		}
	}
	bp, err := a.LP.Compile()
	if err != nil {
		return err
	}
	solver := bp.NewSolver()
	cost1 := make([]float64, bp.NumCols()) // LP1: maximize θ
	cost1[theta] = -1
	cost2 := make([]float64, bp.NumCols()) // LP2: maximize unfrozen volume
	for _, f := range active {
		k, i := inst.FlowOf(f)
		for _, c := range a.xIdx[k][i] {
			if c >= 0 {
				cost2[c] = -1
			}
		}
	}
	thetaCol := make([]float64, bp.NumRows()) // −span_f at row[f]
	frozen := make([]float64, nf)             // fraction frozen at, −1 while unfrozen
	for _, f := range active {
		frozen[f] = -1
	}
	lo := make([]float64, nf) // this level's floor and
	hi := make([]float64, nf) // target volume of an unfrozen flow

	var last *lp.Solution
	prev := 0.0
	for _, alpha := range r.levels {
		began := time.Now()
		for _, f := range active {
			d := r.demand[f]
			if fz := frozen[f]; fz >= 0 {
				// Held in a window below the frozen volume that never
				// reaches under the flow's promise.
				thetaCol[row[f]] = 0
				low := math.Max(fz*d-frozenSlack*(1+fz*d), r.floor(f, math.Min(fz, minFracOf(opt, f))*d))
				a.LP.SetRowBounds(row[f], low, fz*d)
				continue
			}
			// span_f comes from the targets, not from the slackened floor: a
			// flow held at its promise through this level must get an exact
			// zero, never a floorSlack-sized θ coefficient to pivot on.
			hi[f] = r.targetFrac(f, alpha) * d
			want := math.Min(r.targetFrac(f, prev)*d, hi[f])
			thetaCol[row[f]] = want - hi[f]
			lo[f] = r.floor(f, want)
			a.LP.SetRowBounds(row[f], lo[f], lo[f])
		}
		if err := solver.SetColumn(theta, thetaCol); err != nil {
			return err
		}
		a.LP.SetColBounds(theta, 0, 1)
		sol, err := solver.ResolveCtx(ctx, lp.Variant{Cost: cost1}, lp.Options{})
		if err != nil {
			return err
		}
		if sol.Status == lp.Optimal {
			thetaStar := math.Min(math.Max(sol.X[theta], 0), 1)
			a.LP.SetColBounds(theta, thetaStar, thetaStar)
			for _, f := range active {
				if frozen[f] < 0 {
					a.LP.SetRowBounds(row[f], lo[f], math.Max(lo[f], hi[f]+thetaCol[row[f]]*thetaStar))
				}
			}
			if sol, err = solver.ResolveCtx(ctx, lp.Variant{Cost: cost2}, lp.Options{}); err != nil {
				return err
			}
		}
		if sol.Status != lp.Optimal {
			// LP1 can only be infeasible through MinFrac minimums the
			// scenario cannot support (every other floor was delivered by
			// an earlier solve); relax every floor uniformly and take that
			// allocation for the level.
			if sol, err = r.relaxAndSolve(ctx, classList, active, frozen, residual, ci, prev); err != nil {
				return fmt.Errorf("te: max-min level %v: %w", alpha, err)
			}
		}
		r.carry(a, classList, sol.X)
		// Freeze flows that failed to reach the level.
		for _, f := range active {
			if frozen[f] >= 0 {
				continue
			}
			fr := math.Min(r.carried[f]/r.demand[f], 1)
			if fr < r.targetFrac(f, alpha)-freezeTol {
				frozen[f] = fr
				k, i := inst.FlowOf(f)
				for _, c := range a.xIdx[k][i] {
					if c >= 0 {
						cost2[c] = 0
					}
				}
			}
		}
		last = sol
		prev = alpha
		if r.tr != nil { // boxing alpha allocates; a small class index does not
			r.tr.AddSpan("level", began, time.Now(), true, "alpha", alpha)
		}
	}
	for _, f := range active {
		r.achieved[f] = math.Min(r.carried[f]/r.demand[f], 1)
	}
	// Extract routing for this class and (in joint mode) every earlier
	// class; later classes are rewritten by their own rounds.
	for _, k := range classList {
		if k > ci {
			continue
		}
		for i := range inst.Pairs {
			res.X[k][i] = a.ExtractX(last, k, i)
		}
	}
	if opt.FixRoutes {
		a.EdgeUse(last, r.fixedUse)
	}
	return nil
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
func (r *maxMinRun) relaxAndSolve(ctx context.Context, classList, active []int, frozen, residual []float64, ci int, prev float64) (*lp.Solution, error) {
	inst, opt := r.inst, r.opt
	b := NewAlloc(inst, r.scen, classList, residual)
	lam := b.LP.AddCol("lambda", 0, 1, -1)
	addFloor := func(f int, frac float64) {
		if v := frac * r.demand[f]; v > 0 {
			k, i := inst.FlowOf(f)
			b.LP.AddGE("relax", 0, append(b.FlowEntries(k, i), lp.Entry{Col: lam, Coef: -v})...)
		}
	}
	for _, f := range active {
		if frozen[f] >= 0 {
			addFloor(f, frozen[f])
			continue
		}
		lo := minFracOf(opt, f)
		if prev > lo && opt.Domain == FractionDomain {
			lo = prev
		}
		addFloor(f, lo)
	}
	if !opt.FixRoutes {
		for k := 0; k < ci; k++ {
			for i := range inst.Pairs {
				f := inst.FlowID(k, i)
				addFloor(f, r.achieved[f])
			}
		}
		for k := ci + 1; k < len(inst.Classes); k++ {
			for i := range inst.Pairs {
				if f := inst.FlowID(k, i); inst.FlowConnected(k, i, r.scen) {
					addFloor(f, minFracOf(opt, f))
				}
			}
		}
	}
	sol, err := b.LP.SolveCtx(ctx, lp.Options{})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("te: max-min relaxation failed: %v", sol.Status)
	}
	// Accept the relaxed allocation as-is for this level.
	return sol, nil
}

func minFracOf(opt MaxMinOptions, f int) float64 {
	if opt.MinFrac == nil {
		return 0
	}
	return opt.MinFrac[f]
}
