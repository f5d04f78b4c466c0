package lp

import (
	"cmp"
	"math"
	"slices"
)

// The bounded dual simplex. A warm start — a basis another solve left
// optimal, re-used after a change of bounds — is usually still dual
// feasible: every nonbasic variable prices out, and only some basic values
// sit beyond their (new) bounds. The primal simplex has to repair those in a
// phase 1 that ignores the costs; the dual simplex keeps the basis priced
// out and drives the infeasible basics out of it instead, one bound at a
// time, each pivot a step up the dual objective. optimize enters it only
// from such a start (DESIGN.md §2.1); every other solve runs the primal.
//
// An iteration: the leaving row r is the basic variable furthest beyond a
// bound; ρ = e_rᵀB⁻¹ (one btran) and the pivot row αᵣ = ρ·F give how each
// nonbasic variable moves it; the bound-flipping ratio test walks the
// breakpoints d_j/α_rj in order, flipping boxed variables to their other
// bound while the row is still infeasible afterwards, and a Harris pass
// picks the entering variable among the near-ties by the largest |α_rj|.
// The flips move the basic values (one ftran of the flipped columns), the
// pivot lands the leaving variable on the bound it violated, and d is
// carried by the dual step along αᵣ — no further btran.

// dualStallLimit is how many consecutive dual iterations may pass without
// raising the dual objective before the dual hands the basis it reached to
// the primal: the cost perturbation makes a stall rare, and the primal's
// phase 1 and perturbed phase 2, bounded by MaxIters, finish from there.
const dualStallLimit = 200

// stalled is the dual loop's hand-over verdict: the basis is fine, but the
// primal finishes the solve. It never leaves the package.
const stalled Status = -1

// dualFeasible refreshes the reduced costs under the true costs and reports
// whether every nonbasic variable prices out within dualTol for the bound it
// rests on: the condition under which optimize may enter the dual. A
// nonbasic free variable with a finite bound (installBasis keeps it at 0,
// off its bounds) sends the solve to the primal.
func (s *simplex) dualFeasible(dualTol float64) bool {
	s.refreshD(2)
	for v, st := range s.status {
		if st == basic || s.ub[v]-s.lb[v] <= 0 {
			continue
		}
		d := s.d[v]
		switch st {
		case nonbasicLower:
			if d < -dualTol {
				return false
			}
		case nonbasicUpper:
			if d > dualTol {
				return false
			}
		case nonbasicFree:
			if !math.IsInf(s.lb[v], -1) || !math.IsInf(s.ub[v], 1) || math.Abs(d) > dualTol {
				return false
			}
		}
	}
	return true
}

// dual runs the dual simplex from a dual-feasible basis under perturbed
// costs (perturbCosts, as phase 2 does); the caller restores the true costs.
// It returns Optimal once every basic value is within tol of its bounds,
// Infeasible when a row cannot come within phase 1's feasibility allowance
// of its bound with every nonbasic variable at its most favorable one,
// IterLimit, or stalled.
func (s *simplex) dual(iters *int) (Status, error) {
	tol := DefaultTol
	dualTol := DefaultTol
	s.perturbCosts()
	stale := true
	stall, lastObj := 0, math.Inf(-1)
	for {
		if *iters >= s.opts.MaxIters {
			return IterLimit, nil
		}
		if *iters%checkCancelEvery == 0 {
			if err := s.checkCancel(); err != nil {
				return 0, err
			}
		}
		if s.sinceRefactor >= s.opts.RefactorEvery {
			if err := s.refactor(); err != nil {
				return 0, err
			}
			stale = true
		}
		if stale {
			s.refreshD(2)
			s.shiftCosts()
			stale = false
		}
		r, delta := s.dualLeave(tol)
		if r < 0 {
			return Optimal, nil
		}
		if obj := s.currentObjective(); obj > lastObj+tol {
			lastObj, stall = obj, 0
		} else if stall++; stall > dualStallLimit {
			return stalled, nil
		}
		s.dualRow(r)
		q, flips, short := s.dualRatio(delta, tol, dualTol)
		if q >= 0 {
			s.ftran(q)
		}
		if q < 0 || !s.pivotAgrees(r, q) {
			// No entering variable, or the row and the column disagree on
			// the pivot: decide on fresh factors only. A row that falls
			// short by no more than phase 1's feasibility allowance is the
			// primal's to call.
			if s.sinceRefactor > 0 {
				if err := s.refactor(); err != nil {
					return 0, err
				}
				stale = true
				continue
			}
			if q >= 0 || short <= tol*float64(1+s.m) {
				return stalled, nil
			}
			return Infeasible, nil
		}
		*iters++
		s.dualPivots++
		leaving := s.basis[r]
		s.flipBounds(s.bps[:flips])
		theta := s.dualTheta(q, delta)
		if math.Abs(theta) <= tol {
			s.degenPivots++
		}
		t, dir := s.dualPrimalStep(r, leaving, delta)
		s.pivot(q, r, t, dir)
		s.carryD(leaving, theta)
	}
}

// shiftCosts moves the cost of every nonbasic variable whose reduced cost
// has the wrong sign for its bound — the cost jitter, a Harris step or drift
// made it so — by exactly that reduced cost, so it prices at zero. The
// shifts live in the perturbed costs and go with them.
func (s *simplex) shiftCosts() {
	for v, st := range s.status {
		if st == basic || s.ub[v]-s.lb[v] <= 0 {
			continue
		}
		d := s.d[v]
		if (st == nonbasicLower && d < 0) || (st == nonbasicUpper && d > 0) || (st == nonbasicFree && d != 0) {
			s.cost[v] -= d
			s.cc[v] -= d
			s.d[v] = 0
		}
	}
}

// dualLeave picks the basis position whose value lies furthest beyond one of
// its bounds by more than tol, and returns it with delta = value − that
// bound (negative below the lower bound); r = −1 when none does.
func (s *simplex) dualLeave(tol float64) (r int, delta float64) {
	r, worst := -1, tol
	for i, v := range s.basis {
		x := s.xB[i]
		if viol := s.lb[v] - x; viol > worst {
			r, worst, delta = i, viol, -viol
		} else if viol := x - s.ub[v]; viol > worst {
			r, worst, delta = i, viol, viol
		}
	}
	return r, delta
}

// dualRow sets rho to row r of B⁻¹ (btran of e_r) and alpha to the pivot
// row rho·F of every variable, walking the rows of F where rho is nonzero.
func (s *simplex) dualRow(r int) {
	s.cb[r] = 1
	s.lu.btran(s.cb, s.rho)
	clear(s.alpha)
	for k, f := range s.rho {
		if f == 0 {
			continue
		}
		for _, e := range s.rows[k] {
			s.alpha[e.Col] += f * e.Coef
		}
		s.alpha[s.n+k] = -f // logical column is -e_k
	}
}

// dualRatio is the bound-flipping ratio test for a leaving row whose value
// lies delta beyond its bound. Each nonbasic variable that can move the row
// toward that bound without its reduced cost changing sign first is a
// breakpoint at dual step d_j/α̃_j, where α̃ is the pivot row signed so that
// the eligible entries are positive at a lower bound and negative at an
// upper one; passing it (flipping the variable to its other bound) spends
// |α_j|·(u_j − l_j) of the row's infeasibility, and an unboxed one cannot be
// passed. The walk, in order of step, stops at the first breakpoint that
// would leave the row within tol of its bound; among it and those after it,
// the Harris pass takes the one of largest |α_j| whose step stays within
// dualTol of every later bound. It returns the entering variable and how
// many breakpoints before it, s.bps[:flips], flip; or q = −1 when the row
// cannot come within tol of its bound, with short, how far it stays from it.
func (s *simplex) dualRatio(delta, tol, dualTol float64) (q, flips int, short float64) {
	sign := 1.0
	if delta < 0 {
		sign = -1
	}
	bps := s.bps[:0]
	for v, st := range s.status {
		a := s.alpha[v]
		if st == basic || math.Abs(a) <= pivotTol || s.ub[v]-s.lb[v] <= 0 {
			continue
		}
		at := sign * a
		if (st == nonbasicLower && at < 0) || (st == nonbasicUpper && at > 0) {
			continue
		}
		bps = append(bps, breakpoint{math.Max(s.d[v]/at, 0), math.Abs(a) * (s.ub[v] - s.lb[v]), v})
	}
	s.bps = bps
	// The walk rarely passes more than a few breakpoints, so it selects
	// the next one by a scan of the rest, and sorts the rest only once it
	// has passed selectPasses of them.
	const selectPasses = 8
	slope, stop, sorted := math.Abs(delta), -1, false
	for k := range bps {
		if !sorted {
			if k == selectPasses {
				slices.SortFunc(bps[k:], breakpointOrder)
				sorted = true
			} else {
				next := k
				for j := k + 1; j < len(bps); j++ {
					if breakpointOrder(bps[j], bps[next]) < 0 {
						next = j
					}
				}
				bps[k], bps[next] = bps[next], bps[k]
			}
		}
		if slope -= bps[k].rate; slope <= tol || math.IsNaN(slope) {
			stop = k
			break
		}
	}
	if stop < 0 {
		return -1, 0, slope
	}
	rest := bps[stop:]
	bound := math.Inf(1)
	for _, bp := range rest {
		bound = math.Min(bound, bp.t+dualTol/math.Abs(s.alpha[bp.i]))
	}
	// The largest |α| within the bound, the first in step order on ties.
	pick := 0
	for k, bp := range rest {
		if bp.t > bound {
			continue
		}
		a, b := math.Abs(s.alpha[bp.i]), math.Abs(s.alpha[rest[pick].i])
		if a > b || (a == b && breakpointOrder(bp, rest[pick]) < 0) {
			pick = k
		}
	}
	return rest[pick].i, stop, 0
}

// breakpointOrder orders breakpoints by step, then by variable.
func breakpointOrder(a, b breakpoint) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return a.i - b.i
}

// pivotAgrees reports whether the entering column's ftran, w, agrees with the
// pivot row on the pivot element: the same sign, above pivotTol. A
// disagreement means the factors have drifted from B.
func (s *simplex) pivotAgrees(r, q int) bool {
	return math.Abs(s.w[r]) > pivotTol && (s.w[r] > 0) == (s.alpha[q] > 0)
}

// flipBounds moves each breakpoint's variable to its other bound and the
// basic values with them: xB −= B⁻¹·Σ F_j·Δx_j, one ftran of the summed
// columns into dx.
func (s *simplex) flipBounds(bps []breakpoint) {
	if len(bps) == 0 {
		return
	}
	for _, bp := range bps {
		v := bp.i
		from := s.xval[v]
		if s.status[v] == nonbasicLower {
			s.status[v], s.xval[v] = nonbasicUpper, s.ub[v]
		} else {
			s.status[v], s.xval[v] = nonbasicLower, s.lb[v]
		}
		dx := s.xval[v] - from
		if v >= s.n {
			s.v[v-s.n] -= dx // logical column is -e_i
		} else {
			for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
				s.v[s.colIdx[k]] += s.colVal[k] * dx
			}
		}
	}
	s.boundFlips += len(bps)
	s.lu.ftran(s.v, s.dx)
	for i, x := range s.dx {
		s.xB[i] -= x
	}
}

// dualTheta is the dual step d_q/α_rq of entering variable q. A reduced cost
// the Harris pass let through with the wrong sign is shifted to zero first,
// so the step never lowers the dual objective.
func (s *simplex) dualTheta(q int, delta float64) float64 {
	if d := s.d[q]; d != 0 && (d > 0) != ((s.alpha[q] > 0) == (delta > 0)) {
		s.cost[q] -= d
		s.cc[q] -= d
		s.d[q] = 0
	}
	return s.d[q] / s.alpha[q]
}

// dualPrimalStep is the move of the entering variable that lands the leaving
// one, at position r and delta beyond a bound before the flips, on that
// bound: the step length and direction pivot takes.
func (s *simplex) dualPrimalStep(r, leaving int, delta float64) (t, dir float64) {
	bound := s.ub[leaving]
	if delta < 0 {
		bound = s.lb[leaving]
	}
	step := (s.xB[r] - bound) / s.w[r]
	if step < 0 {
		return -step, -1
	}
	return step, 1
}

// carryD advances the reduced costs over a dual pivot with step theta: every
// variable's moves by −theta times its pivot-row entry, and the leaving one,
// now nonbasic, prices at −theta.
func (s *simplex) carryD(leaving int, theta float64) {
	if theta != 0 {
		for v, a := range s.alpha {
			if a != 0 {
				s.d[v] -= theta * a
			}
		}
	}
	s.d[leaving] = -theta
}
