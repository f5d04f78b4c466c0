// Package lp implements a linear-programming solver based on the revised
// simplex method with bounded variables.
//
// The solver handles problems of the form
//
//	minimize    c·x
//	subject to  rowLB_i ≤ a_i·x ≤ rowUB_i   for every row i
//	            colLB_j ≤ x_j   ≤ colUB_j   for every column j
//
// Range rows subsume ≤, ≥ and = constraints. The implementation keeps an
// explicit dense basis inverse that is updated in O(m²) per pivot and
// refactorized periodically for numerical stability, with sparse column
// storage for the constraint matrix. Both primal values and row duals /
// reduced costs are reported, which is what the Benders-style decomposition
// in the flexile scheme needs for cut generation.
//
// Everything is deterministic: no randomized pivoting is used.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"flexile/internal/obs"
)

// ErrSingularBasis reports that numerical degradation made the basis
// singular beyond what the internal logical-basis restart could repair.
// Callers running a retry policy (the flexile decomposition's degraded
// mode) match it with errors.Is and re-solve with hardened settings.
var ErrSingularBasis = errors.New("lp: singular basis during refactorization")

// ErrIterLimit is a sentinel for callers that treat the IterLimit status
// as a failure: the solver itself reports iteration exhaustion through
// Solution.Status, but layers that require an Optimal solve (the flexile
// subproblems) wrap this error so retry policies can classify it.
var ErrIterLimit = errors.New("lp: iteration limit exhausted")

// Inf is the canonical unbounded value for row and column bounds.
var Inf = math.Inf(1)

// Entry is a single nonzero coefficient of a row.
type Entry struct {
	Col  int
	Coef float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create instances with NewProblem.
type Problem struct {
	// Objective sense is always minimize; use negated costs to maximize.
	obj     []float64
	colLB   []float64
	colUB   []float64
	colName []string

	rowLB   []float64
	rowUB   []float64
	rowName []string

	// Sparse column-wise storage of the constraint matrix: for column j,
	// rows colIdx[colPtr[j]:colPtr[j+1]] hold values colVal[...]. Built
	// lazily from the row-wise insertion buffers at solve time.
	rows [][]Entry
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddCol appends a column (variable) with the given bounds and objective
// coefficient and returns its index. lb may be -Inf and ub +Inf.
func (p *Problem) AddCol(name string, lb, ub, cost float64) int {
	p.obj = append(p.obj, cost)
	p.colLB = append(p.colLB, lb)
	p.colUB = append(p.colUB, ub)
	p.colName = append(p.colName, name)
	return len(p.obj) - 1
}

// SetCost overrides the objective coefficient of column j.
func (p *Problem) SetCost(j int, cost float64) { p.obj[j] = cost }

// Cost returns the objective coefficient of column j.
func (p *Problem) Cost(j int) float64 { return p.obj[j] }

// SetColBounds overrides the bounds of column j.
func (p *Problem) SetColBounds(j int, lb, ub float64) {
	p.colLB[j] = lb
	p.colUB[j] = ub
}

// ColLB returns the lower bound of column j.
func (p *Problem) ColLB(j int) float64 { return p.colLB[j] }

// ColUB returns the upper bound of column j.
func (p *Problem) ColUB(j int) float64 { return p.colUB[j] }

// AddRow appends a range constraint lb ≤ Σ entries ≤ ub and returns its
// index. Entries with duplicate column indices are summed.
func (p *Problem) AddRow(name string, lb, ub float64, entries ...Entry) int {
	row := make([]Entry, 0, len(entries))
	row = append(row, entries...)
	p.rows = append(p.rows, row)
	p.rowLB = append(p.rowLB, lb)
	p.rowUB = append(p.rowUB, ub)
	p.rowName = append(p.rowName, name)
	return len(p.rows) - 1
}

// AddLE appends Σ entries ≤ ub.
func (p *Problem) AddLE(name string, ub float64, entries ...Entry) int {
	return p.AddRow(name, -Inf, ub, entries...)
}

// AddGE appends Σ entries ≥ lb.
func (p *Problem) AddGE(name string, lb float64, entries ...Entry) int {
	return p.AddRow(name, lb, Inf, entries...)
}

// AddEQ appends Σ entries = b.
func (p *Problem) AddEQ(name string, b float64, entries ...Entry) int {
	return p.AddRow(name, b, b, entries...)
}

// SetRowBounds overrides the bounds of row i.
func (p *Problem) SetRowBounds(i int, lb, ub float64) {
	p.rowLB[i] = lb
	p.rowUB[i] = ub
}

// NumCols reports the number of structural variables.
func (p *Problem) NumCols() int { return len(p.obj) }

// NumRows reports the number of constraints.
func (p *Problem) NumRows() int { return len(p.rows) }

// ColName returns the name given to column j.
func (p *Problem) ColName(j int) string { return p.colName[j] }

// RowName returns the name given to row i.
func (p *Problem) RowName(i int) string { return p.rowName[i] }

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints and bounds.
	Infeasible
	// Unbounded means the objective can decrease without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted before proving
	// optimality; the reported solution is the best basis reached.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	// X has one primal value per column.
	X []float64
	// RowDual has one dual multiplier per row (the simplex multiplier y_i).
	// For a minimization problem, y_i ≥ 0 on binding ≥-rows and y_i ≤ 0 on
	// binding ≤-rows.
	RowDual []float64
	// ColDual has the reduced cost of every column at the final basis.
	ColDual []float64
	// RowValue has the final activity a_i·x of every row.
	RowValue []float64
	// Iterations is the total simplex pivot count across both phases.
	Iterations int
	// WarmStarted reports whether Options.StartBasis was actually
	// installed: false when no start basis was given, and — the case
	// callers care about — when one was given but rejected as incompatible
	// (wrong shape, wrong basic count, or a singular basic set). Rejection
	// also increments the obs WarmStartRejected counter, so silent
	// cache-miss storms show up in /metrics.
	WarmStarted bool
	// InverseNonzeros is the number of nonzero entries in the NumRows²
	// basis inverse the solve ended on. The simplex kernels cost time in
	// proportion to it; BenchmarkSimplexKernels reports it as a density.
	InverseNonzeros int

	basis *Basis
}

// Options tunes the solver.
type Options struct {
	// MaxIters bounds total pivots; 0 means automatic (scales with size).
	MaxIters int
	// Tol is the feasibility/optimality tolerance; 0 means DefaultTol.
	Tol float64
	// RefactorEvery forces a refactorization of the basis inverse after
	// this many pivots; 0 means automatic.
	RefactorEvery int
	// StartBasis warm-starts the solve from a basis recorded by a previous
	// Solution.Basis() on a problem with the same rows and columns
	// (typically with modified bounds, the branch-and-bound pattern). An
	// incompatible basis is ignored.
	StartBasis *Basis
	// Timeout bounds the wall-clock time of one solve; 0 means unlimited.
	// The deadline is checked every few pivots, so an expired solve returns
	// context.DeadlineExceeded (wrapped) within a handful of iterations.
	Timeout time.Duration
	// Bland starts every phase under Bland's rule immediately instead of
	// waiting for a stall, trading speed for guaranteed anti-cycling — the
	// hardened setting retry policies use after a numerical failure.
	Bland bool
}

// DefaultTol is the feasibility/optimality tolerance of a solve whose
// Options leave Tol zero. Callers that hand one solve's answer to the next as
// bounds (te.MaxMin) size their slacks against it.
const DefaultTol = 1e-9

func (o Options) withDefaults(m, n int) Options {
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if o.MaxIters == 0 {
		o.MaxIters = 2000 + 40*(m+n)
	}
	if o.RefactorEvery == 0 {
		o.RefactorEvery = 120
	}
	return o
}

// Solve optimizes the problem with default options.
func (p *Problem) Solve() (*Solution, error) { return p.SolveOpts(Options{}) }

// SolveOpts optimizes the problem with the given options.
func (p *Problem) SolveOpts(opts Options) (*Solution, error) {
	return p.SolveCtx(context.Background(), opts)
}

// SolveCtx optimizes the problem under a context: cancellation or an
// expired deadline (the context's or Options.Timeout, whichever is
// sooner) aborts the simplex within a few pivots and returns the context
// error wrapped. A nil ctx is treated as context.Background().
func (p *Problem) SolveCtx(ctx context.Context, opts Options) (*Solution, error) {
	col := obs.From(ctx)
	var start time.Time
	if col != nil {
		start = time.Now()
	}
	s, err := newSimplex(p, opts)
	if err != nil {
		if col != nil {
			col.AddLP(obs.LPMetrics{Solves: 1, Errors: 1})
		}
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	if opts.Timeout > 0 {
		s.deadline = time.Now().Add(opts.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (s.deadline.IsZero() || d.Before(s.deadline)) {
		s.deadline = d
	}
	sol, err := s.solve()
	if col != nil {
		elapsed := time.Since(start)
		col.AddLP(s.metrics(sol, err, elapsed))
		col.ObserveLatency(obs.LatLPSolve, elapsed)
	}
	return sol, err
}

// metrics packages the solve's counters for a one-shot collector flush.
func (s *simplex) metrics(sol *Solution, err error, elapsed time.Duration) obs.LPMetrics {
	d := obs.LPMetrics{
		Solves:           1,
		Pivots:           int64(s.phase1Pivots + s.phase2Pivots),
		Phase1Pivots:     int64(s.phase1Pivots),
		Phase2Pivots:     int64(s.phase2Pivots),
		BoundFlips:       int64(s.boundFlips),
		DegeneratePivots: int64(s.degenPivots),
		Refactorizations: int64(s.refactors),
		BlandActivations: int64(s.blandActs),
		SingularRestarts: int64(s.singularRestarts),
		PriceRefreshes:   int64(s.priceRefreshes),
		SolveNanos:       elapsed.Nanoseconds(),
	}
	if s.warmAccepted {
		d.WarmStarts = 1
	}
	if s.warmRejected {
		d.WarmStartRejected = 1
	}
	switch {
	case err != nil:
		d.Errors = 1
	case sol.Status == Optimal:
		d.Optimal = 1
	case sol.Status == Infeasible:
		d.Infeasible = 1
	case sol.Status == Unbounded:
		d.Unbounded = 1
	case sol.Status == IterLimit:
		d.IterLimit = 1
	}
	return d
}
