// Package lp implements a linear-programming solver based on the revised
// simplex method with bounded variables.
//
// The solver handles problems of the form
//
//	minimize    c·x
//	subject to  rowLB_i ≤ a_i·x ≤ rowUB_i   for every row i
//	            colLB_j ≤ x_j   ≤ colUB_j   for every column j
//
// Range rows subsume ≤, ≥ and = constraints. The implementation holds the
// basis as a sparse LU factorization with a product-form eta file appended
// per pivot, refactorized periodically, with sparse column storage for the
// constraint matrix. Primal values and row duals are reported, which is
// what the Benders-style decomposition in the flexile scheme needs for cut
// generation.
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
	// Iterations is the total simplex pivot count: the primal's two phases
	// and the dual simplex a warm start runs.
	Iterations int
	// FactorNonzeros is the number of nonzeros the basis factorization
	// held when the solve ended: L, U and the eta file of the pivots since
	// the last refactorization. The simplex solves cost time in proportion
	// to it; BenchmarkSimplexKernels reports it per row.
	FactorNonzeros int

	basis *Basis
}

// Options tunes the solver.
type Options struct {
	// MaxIters bounds total pivots; 0 means automatic (scales with size).
	MaxIters int
	// RefactorEvery forces a refactorization of the basis after
	// this many pivots; 0 means automatic.
	RefactorEvery int
	// StartBasis warm-starts the solve from a basis recorded by a previous
	// Solution.Basis() on a problem with the same rows and columns
	// (typically with modified bounds, the branch-and-bound pattern). A
	// basis that still prices out runs the dual simplex; an incompatible
	// basis is ignored.
	StartBasis *Basis
	// Bland prices every phase by Bland's rule (the lowest-index improving
	// variable) and skips the dual simplex, trading speed for guaranteed
	// anti-cycling — the hardened setting retry policies use after a
	// numerical failure, and the only way a solve runs Bland's rule. A solve
	// without it is bounded by MaxIters; an IterLimit is what such a retry
	// policy catches.
	Bland bool
}

// DefaultTol is every solve's feasibility and optimality tolerance. Callers
// that hand one solve's answer to the next as bounds (te.MaxMin) size their
// slacks against it.
const DefaultTol = 1e-9

// The factorization's tolerances. Basis entries are the model's own
// coefficients and the logicals' −1, so each is absolute at that scale.
const (
	// singularTol: a pivot smaller than this makes the basis singular — two
	// decades under pivotTol, so a basis the ratio tests built still factors.
	singularTol = 1e-12
	// stabilityTol: the nucleus may pivot on any entry at least this share of
	// its column's largest — the textbook Markowitz threshold, growth ≤ 10×
	// per step for the freedom to pick the sparsest row.
	stabilityTol = 0.1
	// pivotTol: the ratio tests never pivot on |w_i| at or below this — the
	// eta's pivot divides every later solve, so a tiny one amplifies noise.
	pivotTol = 1e-10
)

// The simplex's two tie-breaking scales, both DefaultTol: each moves which of
// several near-equal choices is taken, never what counts as feasible or
// optimal.
const (
	// perturbScale is the cost jitter of phase 2 and the dual (perturbCosts):
	// c_j moves by perturbScale·ξ_j·(1+|c_j|), ξ_j ∈ [0.5, 1.5) — about one
	// DefaultTol per unit cost, so the polish under the true costs that
	// follows only has to undo ties.
	perturbScale = DefaultTol
	// tieStep: phase 1's long-step ratio test takes the breakpoints within
	// tieStep of the stopping step as one tie and pivots on the largest |w_i|
	// among them; a step is a primal move, so DefaultTol is its noise floor.
	tieStep = DefaultTol
)

func (o Options) withDefaults(m, n int) Options {
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
// expired deadline aborts the simplex within a few pivots and returns the
// context error wrapped. A nil ctx is treated as context.Background().
func (p *Problem) SolveCtx(ctx context.Context, opts Options) (*Solution, error) {
	bp, err := p.Compile()
	if err != nil {
		if col := obs.From(ctx); col != nil {
			col.AddLP(obs.LPMetrics{Solves: 1, Errors: 1})
		}
		return nil, err
	}
	// A one-shot solve is a batch of one, on factor storage that the next
	// one-shot solve reuses.
	bs := bp.NewSolver()
	bs.s.lu = luPool.Get().(*luFactor)
	defer luPool.Put(bs.s.lu)
	return bs.SolveCtx(ctx, Variant{}, opts)
}

// metrics packages the solve's counters for a one-shot collector flush.
func (s *simplex) metrics(sol *Solution, err error, elapsed time.Duration) obs.LPMetrics {
	d := obs.LPMetrics{
		Solves:           1,
		Pivots:           int64(s.phase1Pivots + s.phase2Pivots + s.dualPivots),
		Phase1Pivots:     int64(s.phase1Pivots),
		Phase2Pivots:     int64(s.phase2Pivots),
		DualPivots:       int64(s.dualPivots),
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
