package lp

import (
	"context"
	"fmt"
	"time"

	"flexile/internal/obs"
)

// BatchProblem is a compiled linear program: the sparse column structure of
// a Problem, frozen once, ready to be re-solved any number of times under
// different bounds and costs. It exists for workloads like the flexile
// Benders decomposition, where hundreds of scenario LPs share one
// constraint matrix and differ only in their right-hand sides: compiling
// once removes the per-solve column build and the per-solve workspace
// allocation that a plain Problem.SolveCtx pays.
//
// The compiled structure references the Problem's rows; the Problem's
// coefficient structure (AddRow/AddCol) must not change after Compile.
// Bounds and costs on the Problem may still be mutated — a solve with a
// zero Variant reads them fresh — or supplied per solve via Variant.
type BatchProblem struct {
	base   *Problem
	n, m   int
	colPtr []int
	colIdx []int32
	colVal []float64
}

// Compile freezes the problem's constraint structure for batched solving.
// Adding rows or columns (or editing row entries) after Compile is a
// caller bug; bound and cost mutations remain allowed.
func (p *Problem) Compile() (*BatchProblem, error) {
	ptr, idx, val, err := compileColumns(p)
	if err != nil {
		return nil, err
	}
	return &BatchProblem{
		base:   p,
		n:      p.NumCols(),
		m:      p.NumRows(),
		colPtr: ptr,
		colIdx: idx,
		colVal: val,
	}, nil
}

// NumCols reports the number of structural variables of the compiled LP.
func (bp *BatchProblem) NumCols() int { return bp.n }

// NumRows reports the number of constraints of the compiled LP.
func (bp *BatchProblem) NumRows() int { return bp.m }

// Variant overrides parts of the base problem for one solve. Every nil
// slice falls back to the base Problem's current values; a non-nil slice
// must have exactly one entry per row (RowLB, RowUB) or column (ColLB,
// ColUB, Cost). The slices are read during the solve and not retained.
type Variant struct {
	RowLB, RowUB []float64
	ColLB, ColUB []float64
	Cost         []float64
}

// BatchSolver solves Variants of one compiled problem, reusing the entire
// simplex workspace (bounds, statuses, the basis factorization, scratch
// vectors) across solves. It is NOT safe for concurrent use: create one
// solver per goroutine with NewSolver — they can share the BatchProblem,
// which is immutable after Compile.
type BatchSolver struct {
	bp *BatchProblem
	s  *simplex
	// ownVals is set once SetColumn has given this solver a private copy of
	// the coefficient values, by column and by row; until then s.colVal
	// aliases the BatchProblem's and s.rows the Problem's.
	ownVals bool
}

// NewSolver returns a solver with its own workspace over the compiled
// problem.
func (bp *BatchProblem) NewSolver() *BatchSolver {
	s := &simplex{
		p:      bp.base,
		n:      bp.n,
		m:      bp.m,
		colPtr: bp.colPtr,
		colIdx: bp.colIdx,
		colVal: bp.colVal,
		rows:   bp.base.rows,
		lu:     new(luFactor),
	}
	s.allocate()
	return &BatchSolver{bp: bp, s: s}
}

// Solve optimizes one variant with background context.
func (bs *BatchSolver) Solve(v Variant, opts Options) (*Solution, error) {
	return bs.SolveCtx(context.Background(), v, opts)
}

// SolveCtx optimizes one variant. Semantics match Problem.SolveCtx exactly
// — same status reporting, same cancellation behavior, same observability
// counters — and the result is bit-identical to solving the equivalent
// freshly built Problem with the same Options: the reused workspace is
// fully reinitialized per solve, so no state leaks between variants.
func (bs *BatchSolver) SolveCtx(ctx context.Context, v Variant, opts Options) (*Solution, error) {
	return bs.run(ctx, v, opts, (*simplex).solve)
}

// ResolveCtx optimizes one variant in place: the solve starts from the
// basis the solver's previous solve ended on and from the factorization it
// still holds, so there is no reset to the logical basis and no
// refactorization — nonbasic variables move to their (possibly changed)
// bounds, the basic values are recomputed through the held factors, and the
// dual simplex (or, when the held basis no longer prices out, phase 1)
// repairs whatever the change broke. It is the re-solve
// pattern of a ladder of near-identical LPs (te.MaxMin's water-filling
// levels). When the solver holds no factorization — first solve, or the
// previous one failed — it behaves exactly like SolveCtx, Options.StartBasis
// included. The answer is an optimal solution of the variant but, unlike
// SolveCtx, depends on the solves that came before: a degenerate LP may
// finish on another optimal vertex.
func (bs *BatchSolver) ResolveCtx(ctx context.Context, v Variant, opts Options) (*Solution, error) {
	return bs.run(ctx, v, opts, (*simplex).resolve)
}

// SetColumn overwrites the coefficients of structural column j: vals has one
// entry per row, read at the rows of the column's compiled sparsity pattern
// and required to be zero everywhere else (the pattern is fixed at Compile;
// an explicit zero added at build time reserves a slot). The change is
// private to this solver. A held factorization stays exact: a basic column
// is first swapped out of the basis for a row logical.
func (bs *BatchSolver) SetColumn(j int, vals []float64) error {
	s := bs.s
	if j < 0 || j >= s.n {
		return fmt.Errorf("lp: SetColumn column %d out of range [0,%d)", j, s.n)
	}
	if len(vals) != s.m {
		return fmt.Errorf("lp: SetColumn has %d entries, want %d", len(vals), s.m)
	}
	nz := 0
	for _, v := range vals {
		if v != 0 {
			nz++
		}
	}
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	for k := lo; k < hi; k++ {
		if vals[s.colIdx[k]] != 0 {
			nz--
		}
	}
	if nz != 0 {
		return fmt.Errorf("lp: SetColumn column %q has %d nonzeros outside its compiled pattern", s.p.colName[j], nz)
	}
	if s.held && s.status[j] == basic {
		if err := s.evict(j); err != nil {
			s.held = false
		}
	}
	if !bs.ownVals {
		s.colVal = append([]float64(nil), s.colVal...)
		rows := make([][]Entry, len(s.rows))
		for i, row := range s.rows {
			rows[i] = append([]Entry(nil), row...)
		}
		s.rows = rows
		bs.ownVals = true
	}
	for k := lo; k < hi; k++ {
		i := s.colIdx[k]
		x := vals[i]
		s.colVal[k] = x
		// The row view keeps the Problem's duplicate entries: the first takes
		// the value, the rest zero.
		for t := range s.rows[i] {
			if e := &s.rows[i][t]; e.Col == j {
				e.Coef, x = x, 0
			}
		}
	}
	return nil
}

// run is the shared body of SolveCtx and ResolveCtx: load the variant, arm
// cancellation, optimize (from a fresh basis or the held one), flush the
// counters, and record an lp-solve span on the context's request trace.
func (bs *BatchSolver) run(ctx context.Context, v Variant, opts Options, optimize func(*simplex) (*Solution, error)) (*Solution, error) {
	col, tr := obs.From(ctx), obs.TraceFrom(ctx)
	var start time.Time
	if col != nil || tr != nil {
		start = time.Now()
	}
	s := bs.s
	if err := s.reinit(v, opts); err != nil {
		if col != nil {
			col.AddLP(obs.LPMetrics{Solves: 1, Errors: 1})
		}
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	s.deadline, _ = ctx.Deadline()
	sol, err := optimize(s)
	if col != nil {
		elapsed := time.Since(start)
		col.AddLP(s.metrics(sol, err, elapsed))
		col.ObserveLatency(obs.LatLPSolve, elapsed)
	}
	if tr != nil {
		tr.AddSpan("lp-solve", start, time.Now(), true, "pivots", s.phase1Pivots+s.phase2Pivots+s.dualPivots)
	}
	return sol, err
}

// reinit loads the variant's bounds and costs into the reused workspace and
// clears every piece of per-solve state a fresh simplex would start with.
func (s *simplex) reinit(v Variant, opts Options) error {
	n, m, p := s.n, s.m, s.p
	pick := func(name string, want int, override, base []float64) ([]float64, error) {
		if override == nil {
			return base, nil
		}
		if len(override) != want {
			return nil, fmt.Errorf("lp: variant %s has %d entries, want %d", name, len(override), want)
		}
		return override, nil
	}
	colLB, err := pick("ColLB", n, v.ColLB, p.colLB)
	if err != nil {
		return err
	}
	colUB, err := pick("ColUB", n, v.ColUB, p.colUB)
	if err != nil {
		return err
	}
	rowLB, err := pick("RowLB", m, v.RowLB, p.rowLB)
	if err != nil {
		return err
	}
	rowUB, err := pick("RowUB", m, v.RowUB, p.rowUB)
	if err != nil {
		return err
	}
	cost, err := pick("Cost", n, v.Cost, p.obj)
	if err != nil {
		return err
	}
	copy(s.lb, colLB)
	copy(s.ub, colUB)
	for i := 0; i < m; i++ {
		s.lb[n+i] = rowLB[i]
		s.ub[n+i] = rowUB[i]
	}
	copy(s.cost, cost)
	s.opts = opts.withDefaults(m, n)

	// Per-solve counters and flags, exactly the zero state of a new solver.
	// Basis state (status, xval, basis, inBpos, xB, lu, sinceRefactor)
	// needs no clearing: solve() rebuilds it via resetToLogicalBasis/
	// installBasis before any read, and resolve() continues from it.
	s.pivots = 0
	s.phase1Pivots = 0
	s.phase2Pivots = 0
	s.dualPivots = 0
	s.boundFlips = 0
	s.degenPivots = 0
	s.blandActs = 0
	s.refactors = 0
	s.singularRestarts = 0
	s.priceRefreshes = 0
	s.warmAccepted = false
	s.warmRejected = false
	s.trueCost = s.trueCost[:0]
	return s.validate()
}
