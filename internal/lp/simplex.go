package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
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

	// The basis inverse: dense m×m row-major values, plus an exact nonzero
	// bitmap over them — bit k of row i's nw words is set iff binv[i*m+k]
	// != 0. On TE instances the inverse is 6-10 % dense, so the kernels that
	// walk it (computeY, the pivot update, recomputeXB) visit set bits only.
	// Every operation skipped that way adds or subtracts an exact zero, so
	// the values — and with them the pivot sequence — are those of the dense
	// loops; only the sign of a zero inside binv can differ, which nothing
	// reads.
	binv []float64
	nz   []uint64
	nw   int // ⌈m/64⌉ words per bitmap row

	// d holds the reduced cost cc_v − y·F_v of every nonbasic variable v
	// (entries of basic variables are scratch). refreshD computes it from
	// scratch; between refreshes updateD advances it pivot by pivot from rows
	// of binv, gathering the change in y into dy first.
	d, dy []float64

	// scratch
	y  []float64
	w  []float64
	cc []float64
	v  []float64 // recomputeXB's right-hand side
	// gcols/gvals hold the nonzeros of one pivot row gathered for a row
	// update; acols/avals the same for refactor's working matrix fact, which
	// is allocated by the first refactorization and kept.
	gcols, acols []int32
	gvals, avals []float64
	fact         []float64
	bps          []breakpoint // longStepRatio's breakpoint list

	trueCost []float64 // original costs saved across the perturbation

	pivots        int
	sinceRefactor int

	// held reports that status/basis/binv describe a consistent
	// factorization left by the previous solve on this workspace — what
	// BatchSolver.ResolveCtx continues from.
	held bool

	// Per-solve observability counters. Kept as plain ints in this
	// single-goroutine state and flushed once per solve into the obs
	// collector (see SolveCtx) so the hot loop never touches an atomic.
	phase1Pivots     int
	phase2Pivots     int
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

func newSimplex(p *Problem, opts Options) (*simplex, error) {
	n, m := p.NumCols(), p.NumRows()
	s := &simplex{
		p:    p,
		opts: opts.withDefaults(m, n),
		n:    n,
		m:    m,
	}
	var err error
	s.colPtr, s.colIdx, s.colVal, err = compileColumns(p)
	if err != nil {
		return nil, err
	}
	s.rows = p.rows
	s.allocate()
	copy(s.lb, p.colLB)
	for i := 0; i < m; i++ {
		s.lb[n+i] = p.rowLB[i]
	}
	copy(s.ub, p.colUB)
	for i := 0; i < m; i++ {
		s.ub[n+i] = p.rowUB[i]
	}
	copy(s.cost, p.obj)
	return s, nil
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
	s.binv = make([]float64, m*m)
	s.nw = (m + 63) / 64
	s.nz = make([]uint64, m*s.nw)
	s.v = make([]float64, m)
	s.y = make([]float64, m)
	s.w = make([]float64, m)
	s.cc = make([]float64, n+m)
	s.d = make([]float64, n+m)
	s.dy = make([]float64, m)
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
	nnz := counts[n]
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	next := make([]int, n)
	copy(next, counts[:n])
	for i, row := range p.rows {
		for _, e := range row {
			k := next[e.Col]
			idx[k] = int32(i)
			val[k] = e.Coef
			next[e.Col]++
		}
	}
	// Merge duplicates within each column (same row appearing twice).
	ptr := make([]int, n+1)
	outN := 0
	for j := 0; j < n; j++ {
		ptr[j] = outN
		start, end := counts[j], counts[j+1]
		// Rows arrive in insertion order which is ascending row order per
		// AddRow, so duplicates are adjacent only if added to the same row;
		// handle the general case with a small scan.
		for k := start; k < end; k++ {
			r, v := idx[k], val[k]
			merged := false
			for t := ptr[j]; t < outN; t++ {
				if idx[t] == r {
					val[t] += v
					merged = true
					break
				}
			}
			if !merged {
				idx[outN] = r
				val[outN] = v
				outN++
			}
		}
	}
	ptr[n] = outN
	return ptr, idx[:outN], val[:outN], nil
}

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
			// rejection is surfaced through Solution.WarmStarted and the
			// WarmStartRejected counter rather than silently swallowed.
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

// optimizeFromBasis runs the two-phase simplex from the installed basis,
// with one restart from the logical basis if the factorization degrades
// beyond repair, and records whether the workspace ends in a state resolve
// can continue from.
func (s *simplex) optimizeFromBasis() (*Solution, error) {
	if s.opts.Bland {
		s.blandActs++
	}
	iters := 0
	sol, err := s.optimize(&iters)
	if errors.Is(err, ErrSingularBasis) {
		// Numerical degradation corrupted the basis; restart once from the
		// pristine logical basis.
		s.singularRestarts++
		s.resetToLogicalBasis()
		sol, err = s.optimize(&iters)
	}
	s.held = err == nil
	return sol, err
}

// evict makes the basic structural variable v nonbasic without disturbing
// the rest of the basis, so its column can change under a held
// factorization. Row r of B⁻¹ (r = v's basis position) is nonzero exactly
// at the rows whose logical is nonbasic — a basic logical at position p
// contributes δ_rp — so one of those logicals can always take v's place;
// the one with the largest pivot element is chosen. v settles on the
// nearest bound of its current value.
func (s *simplex) evict(v int) error {
	m, r := s.m, s.inBpos[v]
	row := s.binv[r*m : r*m+m]
	q, best := -1, 0.0
	for i, b := range row {
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

// optimize runs phase 1 then perturbed-and-polished phase 2 from the
// current basis.
func (s *simplex) optimize(iters *int) (*Solution, error) {
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
	const base = 1e-9
	for j := range s.cost {
		h := uint64(j)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		h ^= h >> 33
		xi := 0.5 + float64(h%1024)/1024 // ∈ [0.5, 1.5)
		s.cost[j] += base * xi * (1 + math.Abs(s.cost[j]))
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

// recomputeXB sets xB = -B⁻¹·(Σ_nonbasic F_j·x_j).
func (s *simplex) recomputeXB() {
	m := s.m
	v := s.v
	for i := range v {
		v[i] = 0
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == basic {
			continue
		}
		x := s.xval[j]
		if x == 0 {
			continue
		}
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v[s.colIdx[k]] += s.colVal[k] * x
		}
	}
	for i := 0; i < m; i++ {
		lv := s.n + i
		if s.status[lv] != basic {
			v[i] -= s.xval[lv] // logical column is -e_i
		}
	}
	for i := 0; i < m; i++ {
		sum := 0.0
		row := s.binv[i*m : i*m+m]
		for wi, word := range s.nz[i*s.nw : (i+1)*s.nw] {
			for ; word != 0; word &= word - 1 {
				k := wi<<6 + bits.TrailingZeros64(word)
				sum += row[k] * v[k]
			}
		}
		s.xB[i] = -sum
	}
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
	v, tol := s.basis[i], s.opts.Tol
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
	for k := range s.y {
		s.y[k] = 0
	}
	for i, v := range s.basis {
		if cb := s.cc[v]; cb != 0 {
			s.addRow(s.y, cb, i)
		}
	}
}

// addRow adds f times row i of binv to dst, visiting the row's nonzeros.
func (s *simplex) addRow(dst []float64, f float64, i int) {
	row := s.binv[i*s.m : i*s.m+s.m]
	for wi, word := range s.nz[i*s.nw : (i+1)*s.nw] {
		for ; word != 0; word &= word - 1 {
			k := wi<<6 + bits.TrailingZeros64(word)
			dst[k] += f * row[k]
		}
	}
}

// rebuildNZ recomputes the nonzero bitmap from the values of binv, after
// something other than a pivot rewrote them.
func (s *simplex) rebuildNZ() {
	m := s.m
	for i := range s.nz {
		s.nz[i] = 0
	}
	for i := 0; i < m; i++ {
		nzi := s.nz[i*s.nw : (i+1)*s.nw]
		for k, b := range s.binv[i*m : i*m+m] {
			if b != 0 {
				nzi[k>>6] |= 1 << (k & 63)
			}
		}
	}
}

// reducedCost of a nonbasic variable v: d_v = cc_v − y·F_v.
func (s *simplex) reducedCost(v int) float64 {
	d := s.cc[v]
	if v >= s.n {
		d += s.y[v-s.n] // logical column is -e_i
		return d
	}
	for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
		d -= s.y[s.colIdx[k]] * s.colVal[k]
	}
	return d
}

// ftran sets w = B⁻¹·F_q.
func (s *simplex) ftran(q int) {
	m := s.m
	for i := 0; i < m; i++ {
		s.w[i] = 0
	}
	if q >= s.n {
		r := q - s.n
		for i := 0; i < m; i++ {
			s.w[i] = -s.binv[i*m+r]
		}
	} else {
		for k := s.colPtr[q]; k < s.colPtr[q+1]; k++ {
			r := int(s.colIdx[k])
			a := s.colVal[k]
			for i := 0; i < m; i++ {
				s.w[i] += s.binv[i*m+r] * a
			}
		}
	}
}

// run executes simplex iterations for the given phase. Pricing reads the
// maintained reduced costs d; stale marks them for recomputation — on entry
// (the costs are new) and after a refactorization (which also bounds their
// drift) — and no verdict is reached on maintained values: an empty pricing
// pass is repeated on fresh ones.
func (s *simplex) run(phase int, iters *int) (Status, error) {
	tol := s.opts.Tol
	dualTol := math.Max(tol, 1e-9)
	bland := s.opts.Bland
	stall := 0
	lastObj := math.Inf(1)
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
		if phase == 1 {
			inf := s.infeasibility()
			if inf <= tol*float64(1+s.m) {
				return Optimal, nil // feasible; caller proceeds to phase 2
			}
			if inf < lastObj-tol {
				lastObj = inf
				stall = 0
			} else {
				stall++
			}
		} else {
			obj := s.currentObjective()
			if obj < lastObj-tol {
				lastObj = obj
				stall = 0
			} else {
				stall++
			}
		}
		if stall > 2000 && !bland {
			bland = true
			s.blandActs++
		}

		fresh := stale
		if stale {
			s.refreshD(phase)
			stale = false
		}
		q := s.price(dualTol, bland)
		if q < 0 && !fresh {
			s.refreshD(phase)
			fresh = true
			q = s.price(dualTol, bland)
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
			t, r = s.ratioTest(phase, q, dir)
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
// vector, y = cc_B·B⁻¹ over every nonzero of the costed rows of binv, and a
// dot product with every nonbasic column.
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
// variable's row. The moves are summed in dy and d −= dy·F is one pass over
// the rows of F where dy is nonzero.
func (s *simplex) updateD(phase, r, leaving int, dq float64) {
	if r >= 0 {
		s.addRow(s.dy, dq, r)
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
				s.addRow(s.dy, c-s.cc[v], i)
				s.cc[v] = c
			}
		}
	}
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
	for v, st := range s.status {
		if st == basic {
			continue
		}
		if s.ub[v]-s.lb[v] <= 0 { // fixed variable can never improve
			continue
		}
		d := s.d[v]
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

// ratioTest finds the maximum step t for entering variable q moving in
// direction dir. It returns (t, r) where r is the leaving basis position,
// or r = -1 for a bound flip of q itself (or, with t = +Inf, an unbounded
// ray).
func (s *simplex) ratioTest(phase, q int, dir float64) (float64, int) {
	tol := s.opts.Tol
	t := math.Inf(1)
	if !math.IsInf(s.lb[q], -1) && !math.IsInf(s.ub[q], 1) {
		t = s.ub[q] - s.lb[q] // bound flip distance
	}
	r := -1
	const pivTol = 1e-10
	bestPiv := 0.0
	for i := 0; i < s.m; i++ {
		wi := s.w[i]
		if math.Abs(wi) <= pivTol {
			continue
		}
		v := s.basis[i]
		delta := -dir * wi // rate of change of xB[i] per unit step
		x := s.xB[i]
		lo, hi := s.lb[v], s.ub[v]
		if phase == 1 {
			// An infeasible basic is limited only by the bound it violates
			// as it moves back toward feasibility; moving further away is
			// priced by the phase-1 cost, not blocked by the ratio test.
			if x > hi+tol {
				lo, hi = hi, math.Inf(1)
			} else if x < lo-tol {
				lo, hi = math.Inf(-1), lo
			}
		}
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
// direction: at step t its slope worsens by rate.
type breakpoint struct {
	t    float64
	rate float64
	i    int // basis position; -1 = entering variable's own bound
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
	tol := s.opts.Tol
	const pivTol = 1e-10
	bps := s.bps[:0]
	if !math.IsInf(s.lb[q], -1) && !math.IsInf(s.ub[q], 1) {
		bps = append(bps, breakpoint{s.ub[q] - s.lb[q], math.Inf(1), -1})
	}
	for i := 0; i < s.m; i++ {
		wi := s.w[i]
		if math.Abs(wi) <= pivTol {
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
	// the one with the largest |w| — tiny pivots degrade the basis inverse
	// and eventually make refactorization singular.
	bestT, bestR, bestRate := bps[stop].t, bps[stop].i, bps[stop].rate
	for k := 0; k <= stop || (k < len(bps) && bps[k].t <= bestT+1e-9); k++ {
		if k >= len(bps) {
			break
		}
		bp := bps[k]
		if bp.t >= bestT-1e-9 && bp.t <= bestT+1e-9 && bp.i >= 0 && bp.rate > bestRate {
			bestR, bestRate = bp.i, bp.rate
		}
	}
	if bestR == -1 {
		return bestT, -1 // bound flip of the entering variable
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
	m := s.m
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

	// Update B⁻¹ with the elementary transformation for pivot element w[r]:
	// scale the pivot row and gather its nonzeros once; every other row with
	// w[i] != 0 then changes in those columns only, and its pattern becomes
	// the union of the two, less whatever cancelled to zero.
	nw := s.nw
	nzr := s.nz[r*nw : (r+1)*nw]
	cols, vals := scaleGather(s.binv[r*m:r*m+m], 1/s.w[r], s.gcols[:0], s.gvals[:0])
	s.gcols, s.gvals = cols, vals
	vals = vals[:len(cols)] // one bounds check here instead of one per update
	for wi := range nzr {
		nzr[wi] = 0
	}
	for _, k := range cols {
		nzr[k>>6] |= 1 << (k & 63)
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := s.w[i]
		if f == 0 {
			continue
		}
		row := s.binv[i*m : i*m+m]
		nzi := s.nz[i*nw : (i+1)*nw]
		for wi, word := range nzr {
			nzi[wi] |= word
		}
		for j, k := range cols {
			row[k] -= f * vals[j]
			if row[k] == 0 {
				nzi[k>>6] &^= 1 << (k & 63)
			}
		}
	}
	s.pivots++
	s.sinceRefactor++
}

// refactor rebuilds the basis inverse from scratch, in place in binv, and
// recomputes the basic variable values. On ErrSingularBasis binv is left
// half-eliminated: every caller then rebuilds the inverse or stops
// trusting it (optimizeFromBasis and solve reset to the logical basis,
// SetColumn drops the held factorization).
func (s *simplex) refactor() error {
	m := s.m
	if m == 0 {
		s.sinceRefactor = 0
		return nil
	}
	// Assemble B column-wise into the dense working matrix.
	if s.fact == nil {
		s.fact = make([]float64, m*m)
	}
	a, inv := s.fact, s.binv
	for i := range a {
		a[i] = 0
	}
	for pos, v := range s.basis {
		if v >= s.n {
			a[(v-s.n)*m+pos] = -1
		} else {
			for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
				a[int(s.colIdx[k])*m+pos] = s.colVal[k]
			}
		}
	}
	for i := range inv {
		inv[i] = 0
	}
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	// Gauss-Jordan with partial pivoting. Both matrices stay sparse through
	// most of the elimination, so the scaled pivot rows are gathered once
	// per column and only their nonzero columns are touched in other rows.
	for c := 0; c < m; c++ {
		p := c
		best := math.Abs(a[c*m+c])
		for i := c + 1; i < m; i++ {
			if v := math.Abs(a[i*m+c]); v > best {
				best, p = v, i
			}
		}
		if best < 1e-12 {
			return ErrSingularBasis
		}
		if p != c {
			swapRows(a, m, p, c)
			swapRows(inv, m, p, c)
		}
		invPv := 1 / a[c*m+c]
		s.acols, s.avals = scaleGather(a[c*m:c*m+m], invPv, s.acols[:0], s.avals[:0])
		s.gcols, s.gvals = scaleGather(inv[c*m:c*m+m], invPv, s.gcols[:0], s.gvals[:0])
		for i := 0; i < m; i++ {
			if i == c {
				continue
			}
			f := a[i*m+c]
			if f == 0 {
				continue
			}
			arow, irow := a[i*m:i*m+m], inv[i*m:i*m+m]
			for j, k := range s.acols {
				arow[k] -= f * s.avals[j]
			}
			for j, k := range s.gcols {
				irow[k] -= f * s.gvals[j]
			}
		}
	}
	s.rebuildNZ()
	s.refactors++
	s.sinceRefactor = 0
	s.recomputeXB()
	return nil
}

// scaleGather multiplies row by f and appends the columns and values of the
// nonzeros of the result to cols and vals.
func scaleGather(row []float64, f float64, cols []int32, vals []float64) ([]int32, []float64) {
	for k, x := range row {
		if x == 0 {
			continue
		}
		x *= f
		row[k] = x
		if x != 0 { // not underflowed
			cols, vals = append(cols, int32(k)), append(vals, x)
		}
	}
	return cols, vals
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
	for i := range s.binv {
		s.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		s.binv[i*m+i] = -1
	}
	s.rebuildNZ()
	s.sinceRefactor = 0
	s.recomputeXB()
}

func swapRows(a []float64, m, i, j int) {
	ri := a[i*m : i*m+m]
	rj := a[j*m : j*m+m]
	for k := 0; k < m; k++ {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// extract builds the public solution from the final basis.
func (s *simplex) extract(st Status) *Solution {
	n, m := s.n, s.m
	sol := &Solution{
		Status:   st,
		X:        make([]float64, n),
		RowDual:  make([]float64, m),
		ColDual:  make([]float64, n),
		RowValue: make([]float64, m),
	}
	for j := 0; j < n; j++ {
		if s.status[j] == basic {
			sol.X[j] = s.xB[s.inBpos[j]]
		} else {
			sol.X[j] = s.xval[j]
		}
	}
	for i := 0; i < m; i++ {
		lv := n + i
		if s.status[lv] == basic {
			sol.RowValue[i] = s.xB[s.inBpos[lv]]
		} else {
			sol.RowValue[i] = s.xval[lv]
		}
	}
	copy(s.cc, s.cost)
	s.computeY()
	for i := 0; i < m; i++ {
		sol.RowDual[i] = s.y[i]
	}
	for j := 0; j < n; j++ {
		if s.status[j] == basic {
			sol.ColDual[j] = 0
		} else {
			sol.ColDual[j] = s.reducedCost(j)
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += s.cost[j] * sol.X[j]
	}
	sol.Objective = obj
	sol.WarmStarted = s.warmAccepted
	for _, word := range s.nz {
		sol.InverseNonzeros += bits.OnesCount64(word)
	}
	sol.basis = s.snapshotBasis()
	return sol
}
