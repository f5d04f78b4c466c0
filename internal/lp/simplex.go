package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Variable status within the simplex tableau.
type varStatus int8

const (
	nonbasicLower varStatus = iota
	nonbasicUpper
	nonbasicFree // free variable held at zero
	basic
)

// simplex is the working state of one solve. Variables are indexed
// 0..n-1 (structural) and n..n+m-1 (logicals, one per row). The system
// solved is F·x = 0 with F = [A | -I]: the logical variable of row i equals
// the row activity a_i·x and carries the row bounds.
type simplex struct {
	p    *Problem
	opts Options

	n, m int // structural columns, rows

	// Sparse structural columns, and the same matrix by rows: the Problem's
	// own row lists (duplicate entries unmerged, which a sum over a row does
	// not mind), or a private copy once SetColumn has rewritten a column.
	colPtr []int
	colIdx []int32
	colVal []float64
	rows   [][]Entry

	lb, ub []float64 // bounds per variable (n structural + m logical)
	cost   []float64 // phase-2 costs (structural only; logicals 0)

	status []varStatus
	xval   []float64 // current value of every nonbasic variable
	basis  []int     // basis[i] = variable basic in row position i
	inBpos []int     // inBpos[v] = row position if basic, else -1
	xB     []float64 // values of basic variables

	// The basis matrix as LU factors plus an eta file (lu.go): every product
	// with B⁻¹ is an ftran or a btran through it.
	lu *luFactor

	// d holds the reduced cost cc_v − y·F_v of every nonbasic variable v
	// (entries of basic variables are scratch). refreshD computes it from
	// scratch; between refreshes updateD advances it pivot by pivot, one
	// btran per iteration giving the change in y as dy.
	d, dy []float64

	// scratch
	y  []float64
	w  []float64 // ftran of the entering column, by basis position
	cc []float64
	// v and cb are the right-hand sides of ftran (by row) and btran (by basis
	// position); both solves leave them zero.
	v, cb []float64
	bps   []breakpoint // longStepRatio's and dualRatio's breakpoint list
	// The dual simplex's row r of B⁻¹, its pivot row over all n+m
	// variables, and the basic-value move of its bound flips (dual.go).
	rho, alpha, dx []float64

	trueCost []float64 // original costs saved across the perturbation

	pivots        int
	sinceRefactor int

	// held reports that status/basis/lu describe a consistent
	// factorization left by the previous solve on this workspace — what
	// BatchSolver.ResolveCtx continues from.
	held bool

	// Per-solve observability counters. Kept as plain ints in this
	// single-goroutine state and flushed once per solve into the obs
	// collector (see SolveCtx) so the hot loop never touches an atomic.
	phase1Pivots     int
	phase2Pivots     int
	dualPivots       int
	boundFlips       int
	degenPivots      int
	blandActs        int
	refactors        int
	singularRestarts int
	priceRefreshes   int // full pricing passes (refreshD)
	warmAccepted     bool
	warmRejected     bool

	// Cancellation: checked every checkCancelEvery iterations inside run.
	ctx      context.Context
	deadline time.Time // zero = none
}

// allocate sizes the per-solve working slices for n columns and m rows.
func (s *simplex) allocate() {
	n, m := s.n, s.m
	s.lb = make([]float64, n+m)
	s.ub = make([]float64, n+m)
	s.cost = make([]float64, n+m)
	s.status = make([]varStatus, n+m)
	s.xval = make([]float64, n+m)
	s.basis = make([]int, m)
	s.inBpos = make([]int, n+m)
	s.xB = make([]float64, m)
	s.v = make([]float64, m)
	s.cb = make([]float64, m)
	s.y = make([]float64, m)
	s.w = make([]float64, m)
	s.cc = make([]float64, n+m)
	s.d = make([]float64, n+m)
	s.dy = make([]float64, m)
	s.rho = make([]float64, m)
	s.alpha = make([]float64, n+m)
	s.dx = make([]float64, m)
}

// compileColumns converts the row-wise insertion buffers into compressed
// sparse columns, summing duplicate coefficients. An out-of-range entry
// column is a model-construction bug reported as a validation error, like
// inconsistent bounds.
func compileColumns(p *Problem) (colPtr []int, colIdx []int32, colVal []float64, _ error) {
	n := p.NumCols()
	counts := make([]int, n+1)
	for i, row := range p.rows {
		for _, e := range row {
			if e.Col < 0 || e.Col >= n {
				return nil, nil, nil, fmt.Errorf("lp: row %q entry column %d out of range [0,%d)", p.rowName[i], e.Col, n)
			}
			counts[e.Col+1]++
		}
	}
	for j := 0; j < n; j++ {
		counts[j+1] += counts[j]
	}
	// Fill row by row: each column lists its rows in ascending order, so a
	// duplicate entry follows its twin and is summed into it.
	idx, val := make([]int32, counts[n]), make([]float64, counts[n])
	next := append([]int(nil), counts[:n]...)
	for i, row := range p.rows {
		for _, e := range row {
			if k := next[e.Col]; k > counts[e.Col] && idx[k-1] == int32(i) {
				val[k-1] += e.Coef
			} else {
				idx[k], val[k] = int32(i), e.Coef
				next[e.Col]++
			}
		}
	}
	// Close the gaps the merged duplicates left.
	ptr := make([]int, n+1)
	for j := 0; j < n; j++ {
		ptr[j+1] = ptr[j] + copy(idx[ptr[j]:], idx[counts[j]:next[j]])
		copy(val[ptr[j]:], val[counts[j]:next[j]])
	}
	return ptr, idx[:ptr[n]], val[:ptr[n]], nil
}

// luPool holds the factor storage of finished one-shot solves.
var luPool = sync.Pool{New: func() any { return new(luFactor) }}

// checkCancelEvery is how many simplex iterations pass between
// cancellation/deadline checks: rare enough that the time.Now call is
// noise, frequent enough that a canceled solve stops within microseconds.
const checkCancelEvery = 64

// checkCancel reports the context/deadline error once the solve should
// abort, or nil to continue.
func (s *simplex) checkCancel() error {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return fmt.Errorf("lp: solve canceled: %w", err)
		}
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return fmt.Errorf("lp: solve timed out: %w", context.DeadlineExceeded)
	}
	return nil
}

// initialValue places a nonbasic variable at a sensible bound.
func initialValue(lb, ub float64) (float64, varStatus) {
	switch {
	case lb == ub:
		return lb, nonbasicLower
	case !math.IsInf(lb, -1) && (math.IsInf(ub, 1) || math.Abs(lb) <= math.Abs(ub)):
		return lb, nonbasicLower
	case !math.IsInf(ub, 1):
		return ub, nonbasicUpper
	default:
		return 0, nonbasicFree
	}
}

func (s *simplex) solve() (*Solution, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	// Initial basis: all logicals basic (B = -I), then the warm basis on
	// top when one was supplied and installs cleanly.
	s.resetToLogicalBasis()
	if s.opts.StartBasis != nil {
		if s.installBasis(s.opts.StartBasis) {
			s.warmAccepted = true
		} else {
			// Fall back to the cold start: rebuild the trivial basis. The
			// rejection is surfaced through the WarmStartRejected counter
			// rather than silently swallowed.
			s.warmRejected = true
			s.resetToLogicalBasis()
		}
	}

	return s.optimizeFromBasis()
}

// resolve is solve without the restart: it keeps the basis and the
// factorization the previous solve left in the workspace and only moves the
// nonbasic variables onto the new bounds. With nothing held it is solve.
func (s *simplex) resolve() (*Solution, error) {
	if !s.held {
		return s.solve()
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	for v := 0; v < s.n+s.m; v++ {
		switch st := s.status[v]; {
		case st == basic:
		case st == nonbasicLower && !math.IsInf(s.lb[v], -1):
			s.xval[v] = s.lb[v]
		case st == nonbasicUpper && !math.IsInf(s.ub[v], 1):
			s.xval[v] = s.ub[v]
		default:
			// Free, or resting on a bound that no longer exists.
			s.xval[v], s.status[v] = initialValue(s.lb[v], s.ub[v])
		}
	}
	s.recomputeXB()
	s.warmAccepted = true
	return s.optimizeFromBasis()
}

// optimizeFromBasis runs the simplex from the installed basis — the dual
// from a warm start, the two-phase primal otherwise — with one restart from
// the logical basis if the factorization degrades beyond repair, and records
// whether the workspace ends in a state resolve can continue from.
func (s *simplex) optimizeFromBasis() (*Solution, error) {
	if s.opts.Bland {
		s.blandActs++
	}
	iters := 0
	sol, err := s.optimize(&iters, s.warmAccepted)
	if errors.Is(err, ErrSingularBasis) {
		// Numerical degradation corrupted the basis; restart once from the
		// pristine logical basis.
		s.singularRestarts++
		s.resetToLogicalBasis()
		sol, err = s.optimize(&iters, false)
	}
	s.held = err == nil
	return sol, err
}

// evict makes the basic structural variable v nonbasic without disturbing
// the rest of the basis, so its column can change under a held
// factorization. Row r of B⁻¹ (r = v's basis position; btran of e_r) is
// nonzero only at rows whose logical is nonbasic — a basic logical at p
// contributes δ_rp — so one of those logicals, the one with the largest
// pivot element, takes v's place; v settles on its nearest bound.
func (s *simplex) evict(v int) error {
	r := s.inBpos[v]
	s.cb[r] = 1
	s.lu.btran(s.cb, s.y)
	q, best := -1, 0.0
	for i, b := range s.y {
		if a := math.Abs(b); a > best && s.status[s.n+i] != basic {
			q, best = s.n+i, a
		}
	}
	if q < 0 {
		return ErrSingularBasis
	}
	s.ftran(q)
	s.pivot(q, r, 0, 1)
	return nil
}

// optimize solves from the current basis. A warm basis (a supplied or held
// one) that is dual feasible, outside the hardened Bland mode, goes to the
// dual simplex and a true-cost primal polish; every other start, and a dual
// that stalls, runs phase 1 then perturbed-and-polished phase 2.
func (s *simplex) optimize(iters *int, warm bool) (*Solution, error) {
	if warm && !s.opts.Bland {
		// The test for dual feasibility reads d through the factors: refresh
		// a full eta file first.
		if s.sinceRefactor >= s.opts.RefactorEvery {
			if err := s.refactor(); err != nil {
				return nil, err
			}
		}
		if s.dualFeasible(DefaultTol) {
			st, err := s.dual(iters)
			copy(s.cost, s.trueCost)
			if err != nil {
				return nil, err
			}
			switch st {
			case Optimal:
				if st, err = s.run(2, iters); err != nil {
					return nil, err
				}
				sol := s.extract(st)
				sol.Iterations = *iters
				return sol, nil
			case Infeasible, IterLimit:
				return &Solution{Status: st, Iterations: *iters}, nil
			}
			// stalled: the primal takes over from the basis the dual reached.
		}
	}
	st, err := s.run(1, iters)
	if err != nil {
		return nil, err
	}
	if st == Infeasible {
		return &Solution{Status: Infeasible, Iterations: *iters}, nil
	}
	if st != Optimal { // iteration limit during phase 1
		return &Solution{Status: IterLimit, Iterations: *iters}, nil
	}
	// Phase 2 runs with tiny deterministic cost perturbations: highly
	// degenerate LPs (the CVaR formulations especially) stall for tens of
	// thousands of pivots under unperturbed Dantzig pricing. The
	// perturbation is far below the optimality tolerance per unit of
	// activity; a polish pass with the true costs follows.
	s.perturbCosts()
	st, err = s.run(2, iters)
	if err != nil {
		return nil, err
	}
	switch st {
	case Optimal:
		// Polish with the true costs from the perturbed optimum.
		copy(s.cost, s.trueCost)
		st, err = s.run(2, iters)
		if err != nil {
			return nil, err
		}
	case Unbounded:
		// A flat ray of the true objective can tilt negative under the
		// perturbation; re-run unperturbed to decide.
		copy(s.cost, s.trueCost)
		st, err = s.run(2, iters)
		if err != nil {
			return nil, err
		}
	default:
		copy(s.cost, s.trueCost)
	}
	sol := s.extract(st)
	sol.Iterations = *iters
	return sol, nil
}

// perturbCosts applies a deterministic multiplicative jitter to every
// cost coefficient (including the zero logical costs, which get an
// absolute jitter) to break degenerate ties.
func (s *simplex) perturbCosts() {
	s.trueCost = append(s.trueCost[:0], s.cost...)
	for j := range s.cost {
		h := uint64(j)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		h ^= h >> 33
		xi := 0.5 + float64(h%1024)/1024 // ∈ [0.5, 1.5)
		s.cost[j] += perturbScale * xi * (1 + math.Abs(s.cost[j]))
	}
}

func (s *simplex) validate() error {
	for j := 0; j < s.n; j++ {
		if s.lb[j] > s.ub[j] {
			return fmt.Errorf("lp: column %q has lb %g > ub %g", s.p.colName[j], s.lb[j], s.ub[j])
		}
	}
	// Row bounds live on the logical variables so batch variants are
	// validated the same way as freshly built problems.
	for i := 0; i < s.m; i++ {
		lv := s.n + i
		if s.lb[lv] > s.ub[lv] {
			return fmt.Errorf("lp: row %q has lb %g > ub %g", s.p.rowName[i], s.lb[lv], s.ub[lv])
		}
	}
	return nil
}

// recomputeXB sets xB = B⁻¹·(−Σ_nonbasic F_j·x_j).
func (s *simplex) recomputeXB() {
	m, v := s.m, s.v
	for j := 0; j < s.n; j++ {
		if s.status[j] == basic {
			continue
		}
		x := s.xval[j]
		if x == 0 {
			continue
		}
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v[s.colIdx[k]] -= s.colVal[k] * x
		}
	}
	for i := 0; i < m; i++ {
		lv := s.n + i
		if s.status[lv] != basic {
			v[i] += s.xval[lv] // logical column is -e_i
		}
	}
	s.lu.ftran(v, s.xB)
}

// infeasibility returns the total bound violation of basic variables.
func (s *simplex) infeasibility() float64 {
	tot := 0.0
	for i := 0; i < s.m; i++ {
		v := s.basis[i]
		if s.xB[i] > s.ub[v] {
			tot += s.xB[i] - s.ub[v]
		} else if s.xB[i] < s.lb[v] {
			tot += s.lb[v] - s.xB[i]
		}
	}
	return tot
}

// phase1Cost is the composite infeasibility gradient at basis position i: ±1
// on a basic variable beyond a bound, 0 inside them.
func (s *simplex) phase1Cost(i int) float64 {
	v, tol := s.basis[i], DefaultTol
	if s.xB[i] > s.ub[v]+tol {
		return 1
	} else if s.xB[i] < s.lb[v]-tol {
		return -1
	}
	return 0
}

// phaseCost fills cc with the active cost vector: phase 1 uses the
// composite infeasibility gradient, phase 2 the true objective.
func (s *simplex) phaseCost(phase int) {
	if phase == 2 {
		copy(s.cc, s.cost)
		return
	}
	for k := range s.cc {
		s.cc[k] = 0
	}
	for i, v := range s.basis {
		s.cc[v] = s.phase1Cost(i)
	}
}

// computeY sets y = cc_B^T · B⁻¹.
func (s *simplex) computeY() {
	for i, v := range s.basis {
		s.cb[i] = s.cc[v]
	}
	s.lu.btran(s.cb, s.y)
}

// reducedCost of a nonbasic variable v: d_v = cc_v − y·F_v.
func (s *simplex) reducedCost(v int) float64 {
	d := s.cc[v]
	if v >= s.n {
		return d + s.y[v-s.n] // logical column is -e_i
	}
	for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
		d -= s.y[s.colIdx[k]] * s.colVal[k]
	}
	return d
}

// ftran sets w = B⁻¹·F_q.
func (s *simplex) ftran(q int) {
	if q >= s.n {
		s.v[q-s.n] = -1
	} else {
		for k := s.colPtr[q]; k < s.colPtr[q+1]; k++ {
			s.v[s.colIdx[k]] = s.colVal[k]
		}
	}
	s.lu.ftran(s.v, s.w)
}

// run executes simplex iterations for the given phase. Pricing reads the
// maintained reduced costs d; stale marks them for recomputation — on entry
// (the costs are new) and after a refactorization (which also bounds their
// drift) — and no verdict is reached on maintained values: an empty pricing
// pass is repeated on fresh ones. The rule is Dantzig's, or Bland's under
// Options.Bland (the hardened retry); MaxIters bounds a cycle.
func (s *simplex) run(phase int, iters *int) (Status, error) {
	tol := DefaultTol
	dualTol := DefaultTol
	stale := true

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
		if phase == 1 && s.infeasibility() <= tol*float64(1+s.m) {
			return Optimal, nil // feasible; caller proceeds to phase 2
		}

		fresh := stale
		if stale {
			s.refreshD(phase)
			stale = false
		}
		q := s.price(dualTol, s.opts.Bland)
		if q < 0 && !fresh {
			s.refreshD(phase)
			fresh = true
			q = s.price(dualTol, s.opts.Bland)
		}
		if q < 0 {
			if phase == 1 {
				// No improving direction but still infeasible. Retry once
				// after a refactorization in case of numerical drift.
				if s.sinceRefactor > 0 {
					if err := s.refactor(); err != nil {
						return 0, err
					}
					stale = true
					continue
				}
				return Infeasible, nil
			}
			return Optimal, nil
		}

		dq := s.d[q]
		dir := 1.0
		if s.status[q] == nonbasicUpper || (s.status[q] == nonbasicFree && dq > 0) {
			dir = -1
		}

		s.ftran(q)

		var t float64
		var r int
		if phase == 1 {
			// Long-step ratio test: the phase-1 objective is piecewise
			// linear along the direction, so keep crossing bound
			// breakpoints while it still decreases. One long-step pivot
			// replaces what can be thousands of degenerate short steps.
			t, r = s.longStepRatio(q, dir, dq)
		} else {
			t, r = s.ratioTest(q, dir)
		}
		if math.IsInf(t, 1) {
			if !fresh {
				stale = true
				continue
			}
			if phase == 1 {
				return 0, errors.New("lp: unbounded phase-1 direction (numerical failure)")
			}
			return Unbounded, nil
		}
		*iters++
		if phase == 1 {
			s.phase1Pivots++
		} else {
			s.phase2Pivots++
		}
		if r < 0 {
			// Bound flip of the entering variable.
			s.boundFlips++
			s.applyStep(t, dir)
			if s.status[q] == nonbasicLower {
				s.status[q] = nonbasicUpper
				s.xval[q] = s.ub[q]
			} else {
				s.status[q] = nonbasicLower
				s.xval[q] = s.lb[q]
			}
			// In phase 2 a flip changes neither the basis nor a cost.
			if phase == 1 {
				s.updateD(phase, -1, -1, dq)
			}
			continue
		}
		if t <= tol {
			s.degenPivots++
		}
		leaving := s.basis[r]
		s.pivot(q, r, t, dir)
		s.updateD(phase, r, leaving, dq)
	}
}

// refreshD computes the reduced costs of the phase from scratch: the cost
// vector, y = cc_B·B⁻¹ by one btran, and a dot product with every nonbasic
// column.
func (s *simplex) refreshD(phase int) {
	s.phaseCost(phase)
	s.computeY()
	for v, st := range s.status {
		if st != basic {
			s.d[v] = s.reducedCost(v)
		}
	}
	s.priceRefreshes++
}

// updateD carries d over one iteration whose entering variable had reduced
// cost dq. After a pivot at position r (r < 0: a bound flip) y moved by dq
// times row r of the updated inverse; in phase 1 it moved, too, by the cost
// change of every basic variable the step carried across a bound times that
// variable's row. The moves are gathered into one right-hand side by basis
// position, one btran turns it into dy, and d −= dy·F is one pass over the
// rows of F where dy is nonzero.
func (s *simplex) updateD(phase, r, leaving int, dq float64) {
	moved := r >= 0
	if moved {
		s.cb[r] = dq
		// The leaving variable had reduced cost 0 under its basic cost; a
		// nonbasic variable has no phase-1 cost.
		s.d[leaving] = 0
		if phase == 1 {
			s.d[leaving], s.cc[leaving] = -s.cc[leaving], 0
		}
	}
	if phase == 1 {
		for i, v := range s.basis {
			if c := s.phase1Cost(i); c != s.cc[v] {
				s.cb[i] += c - s.cc[v]
				s.cc[v] = c
				moved = true
			}
		}
	}
	if !moved {
		return
	}
	s.lu.btran(s.cb, s.dy)
	for k, f := range s.dy {
		if f == 0 {
			continue
		}
		s.dy[k] = 0
		for _, e := range s.rows[k] {
			s.d[e.Col] -= f * e.Coef
		}
		s.d[s.n+k] += f // logical column is -e_k
	}
}

func (s *simplex) currentObjective() float64 {
	obj := 0.0
	for j := 0; j < s.n; j++ {
		if s.cost[j] == 0 {
			continue
		}
		if s.status[j] == basic {
			obj += s.cost[j] * s.xB[s.inBpos[j]]
		} else {
			obj += s.cost[j] * s.xval[j]
		}
	}
	return obj
}

// price selects an entering variable, or -1 if none improves.
func (s *simplex) price(dualTol float64, bland bool) int {
	best, bestScore := -1, dualTol
	for v, d := range s.d {
		// Every score is at most |d|, so |d| ≤ bestScore cannot win whatever
		// v's status; the test reads d alone. NaN fails it and falls through.
		if -bestScore <= d && d <= bestScore {
			continue
		}
		st := s.status[v]
		if st == basic {
			continue
		}
		if s.ub[v]-s.lb[v] <= 0 { // fixed variable can never improve
			continue
		}
		var score float64
		switch st {
		case nonbasicLower:
			score = -d
		case nonbasicUpper:
			score = d
		case nonbasicFree:
			score = math.Abs(d)
		}
		if score > bestScore {
			if bland {
				return v
			}
			best, bestScore = v, score
		}
	}
	return best
}

// ratioTest is phase 2's ratio test, on a primal feasible basis (phase 1
// takes longStepRatio): it finds the maximum step t for entering variable q
// moving in direction dir. It returns (t, r) where r is the leaving basis
// position, or r = -1 for a bound flip of q itself (or, with t = +Inf, an
// unbounded ray).
func (s *simplex) ratioTest(q int, dir float64) (float64, int) {
	tol := DefaultTol
	t := math.Inf(1)
	if !math.IsInf(s.lb[q], -1) && !math.IsInf(s.ub[q], 1) {
		t = s.ub[q] - s.lb[q] // bound flip distance
	}
	r := -1
	bestPiv := 0.0
	for i := 0; i < s.m; i++ {
		wi := s.w[i]
		if math.Abs(wi) <= pivotTol {
			continue
		}
		v := s.basis[i]
		delta := -dir * wi // rate of change of xB[i] per unit step
		x := s.xB[i]
		lo, hi := s.lb[v], s.ub[v]
		var ti float64
		if delta > 0 {
			if math.IsInf(hi, 1) {
				continue
			}
			ti = (hi - x) / delta
		} else {
			if math.IsInf(lo, -1) {
				continue
			}
			ti = (lo - x) / delta
		}
		if ti < 0 {
			ti = 0
		}
		// Accept a strictly smaller ratio, or a near-tie with a larger
		// pivot element (better numerical stability).
		if ti < t-tol || (ti < t+tol && math.Abs(wi) > bestPiv) {
			if ti < t {
				t = ti
			}
			r = i
			bestPiv = math.Abs(wi)
		}
	}
	return t, r
}

// breakpoint is one kink of the phase-1 objective along the entering
// direction, or of the dual objective along the dual ray: at step t its
// slope worsens by rate.
type breakpoint struct {
	t    float64
	rate float64
	// The phase-1 test's basis position (-1 = the entering variable's own
	// bound), or the dual test's variable.
	i int
}

// longStepRatio implements the piecewise-linear phase-1 ratio test. Along
// the entering direction, the infeasibility sum decreases at rate |dq|
// initially; every time a basic variable crosses a bound the rate worsens
// by |w_i| (a feasible basic starts violating, or an infeasible one stops
// improving). The optimal step stops at the breakpoint where the rate
// turns nonnegative; the blocking basic there leaves the basis. The
// entering variable's own bound span is one more breakpoint (a bound flip,
// r = −1).
func (s *simplex) longStepRatio(q int, dir, dq float64) (float64, int) {
	tol := DefaultTol
	bps := s.bps[:0]
	if !math.IsInf(s.lb[q], -1) && !math.IsInf(s.ub[q], 1) {
		bps = append(bps, breakpoint{s.ub[q] - s.lb[q], math.Inf(1), -1})
	}
	for i := 0; i < s.m; i++ {
		wi := s.w[i]
		if math.Abs(wi) <= pivotTol {
			continue
		}
		v := s.basis[i]
		delta := -dir * wi // rate of change of xB[i] per unit step
		x := s.xB[i]
		lo, hi := s.lb[v], s.ub[v]
		add := func(bound float64) {
			tk := (bound - x) / delta
			if tk < 0 {
				tk = 0
			}
			bps = append(bps, breakpoint{tk, math.Abs(wi), i})
		}
		switch {
		case x > hi+tol: // infeasible above
			if delta < 0 {
				add(hi) // improvement ends at ub...
				if !math.IsInf(lo, -1) {
					add(lo) // ...and violation restarts at lb
				}
			}
			// moving further up: no breakpoint (priced by the objective)
		case x < lo-tol: // infeasible below
			if delta > 0 {
				add(lo)
				if !math.IsInf(hi, 1) {
					add(hi)
				}
			}
		default: // feasible basic
			if delta > 0 && !math.IsInf(hi, 1) {
				add(hi)
			} else if delta < 0 && !math.IsInf(lo, -1) {
				add(lo)
			}
		}
	}
	s.bps = bps
	if len(bps) == 0 {
		return math.Inf(1), -1
	}
	sort.Slice(bps, func(a, b int) bool { return bps[a].t < bps[b].t })
	rate := -math.Abs(dq) // current directional derivative (improving)
	stop := 0
	for k, bp := range bps {
		stop = k
		rate += bp.rate
		if rate >= -tol {
			break
		}
	}
	// Among breakpoints within a whisker of the stopping step, pivot on
	// the one with the largest |w| — tiny pivots degrade the eta file
	// and eventually make refactorization singular.
	bestT, bestR, bestRate := bps[stop].t, bps[stop].i, bps[stop].rate
	for _, bp := range bps {
		if bp.t > bestT+tieStep {
			break
		}
		if bp.t >= bestT-tieStep && bp.i >= 0 && bp.rate > bestRate {
			bestR, bestRate = bp.i, bp.rate
		}
	}
	return bestT, bestR
}

// applyStep moves the basic values for a step of size t in direction dir
// along the current ftran column w.
func (s *simplex) applyStep(t, dir float64) {
	if t == 0 {
		return
	}
	for i := 0; i < s.m; i++ {
		s.xB[i] -= dir * t * s.w[i]
	}
}

// pivot replaces basis position r with entering variable q after a step t.
func (s *simplex) pivot(q, r int, t, dir float64) {
	leaving := s.basis[r]
	enterVal := s.xval[q] + dir*t
	s.applyStep(t, dir)

	// Settle the leaving variable on the nearest finite bound of its
	// post-step value (in phase 1 an infeasible basic lands back on the
	// bound it was violating, which is exactly the nearest one).
	landed := s.xB[r]
	lo, hi := s.lb[leaving], s.ub[leaving]
	switch {
	case !math.IsInf(lo, -1) && (math.IsInf(hi, 1) || math.Abs(landed-lo) <= math.Abs(landed-hi)):
		s.status[leaving] = nonbasicLower
		s.xval[leaving] = lo
	case !math.IsInf(hi, 1):
		s.status[leaving] = nonbasicUpper
		s.xval[leaving] = hi
	default:
		// A free variable never blocks the ratio test; this only happens
		// under numerical noise, in which case zero is the safe resting
		// point.
		s.status[leaving] = nonbasicFree
		s.xval[leaving] = 0
	}
	s.inBpos[leaving] = -1

	s.basis[r] = q
	s.status[q] = basic
	s.inBpos[q] = r
	s.xB[r] = enterVal

	// B's column r is now F_q (ftran w). Room: RefactorEvery etas + evictions.
	s.lu.push(r, s.w, s.opts.RefactorEvery+4)
	s.pivots++
	s.sinceRefactor++
}

// refactor factors the basis afresh, dropping the eta file, and recomputes
// the basic variable values. On ErrSingularBasis the factors are
// incomplete: every caller then refactors another basis or stops trusting
// them (optimizeFromBasis and solve reset to the logical basis, SetColumn
// drops the held factorization).
func (s *simplex) refactor() error {
	if err := s.lu.factorize(s.basis, s.n, s.colPtr, s.colIdx, s.colVal); err != nil {
		return err
	}
	s.refactors++
	s.sinceRefactor = 0
	s.recomputeXB()
	return nil
}

// resetToLogicalBasis rebuilds the trivial basis (all logicals basic,
// structurals at their initial bounds) — the recovery point after numerical
// failure.
func (s *simplex) resetToLogicalBasis() {
	n, m := s.n, s.m
	for v := 0; v < n+m; v++ {
		s.inBpos[v] = -1
	}
	for j := 0; j < n; j++ {
		s.xval[j], s.status[j] = initialValue(s.lb[j], s.ub[j])
	}
	for i := 0; i < m; i++ {
		v := n + i
		s.basis[i] = v
		s.status[v] = basic
		s.inBpos[v] = i
	}
	// B = −I: m column singletons, which always factor.
	_ = s.lu.factorize(s.basis, n, s.colPtr, s.colIdx, s.colVal)
	s.sinceRefactor = 0
	s.recomputeXB()
}

// extract builds the public solution from the final basis: the primal point
// and the row duals y = c_B·B⁻¹ (one btran). Reduced costs and row
// activities follow from them and the Problem (c_j − y·A_j, a_i·x).
func (s *simplex) extract(st Status) *Solution {
	n := s.n
	sol := &Solution{
		Status:  st,
		X:       make([]float64, n),
		RowDual: make([]float64, s.m),
	}
	for j := 0; j < n; j++ {
		if s.status[j] == basic {
			sol.X[j] = s.xB[s.inBpos[j]]
		} else {
			sol.X[j] = s.xval[j]
		}
	}
	copy(s.cc, s.cost)
	s.computeY()
	copy(sol.RowDual, s.y)
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += s.cost[j] * sol.X[j]
	}
	sol.Objective = obj
	sol.FactorNonzeros = s.lu.nnz()
	sol.basis = s.snapshotBasis()
	return sol
}
