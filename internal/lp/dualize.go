package lp

import (
	"fmt"
	"math"
)

// SolveDualized solves the problem by forming and optimizing its LP dual,
// then recovering the primal solution from the dual multipliers.
//
// The simplex basis has one entry per row, so the cost of a pivot grows
// with the row count. Formulations that bundle many failure scenarios
// (Teavar and the CVaR variants build one row per pair per scenario) have
// far more rows than columns; their duals invert the shape and solve orders
// of magnitude faster. Use this entry point when NumRows ≫ NumCols.
//
// The problem must be feasible and bounded: if the dual reports unbounded
// the primal is infeasible and vice versa, and the returned status reflects
// that mapping. Only Status, Objective, X and RowDual are populated.
func (p *Problem) SolveDualized() (*Solution, error) {
	return p.SolveDualizedOpts(Options{})
}

// SolveDualizedOpts is SolveDualized with explicit solver options.
func (p *Problem) SolveDualizedOpts(opts Options) (*Solution, error) {
	c, err := canonicalize(p)
	if err != nil {
		return nil, err
	}
	d := NewProblem()
	// Dual variable per canonical row (all canonical rows are ≥ rows, so
	// the dual variables are nonnegative); dual objective max b̂·y, posed
	// as min −b̂·y.
	for i, b := range c.rhs {
		d.AddCol(fmt.Sprintf("y%d", i), 0, Inf, -b)
	}
	// Dual row per canonical column: Âᵀy ≤ ĉ.
	colEntries := make([][]Entry, c.ncols)
	for i, row := range c.rows {
		for _, e := range row {
			colEntries[e.Col] = append(colEntries[e.Col], Entry{Col: i, Coef: e.Coef})
		}
	}
	for k := 0; k < c.ncols; k++ {
		d.AddLE(fmt.Sprintf("x%d", k), c.cost[k], colEntries[k]...)
	}
	ds, err := d.SolveOpts(opts)
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		X:       make([]float64, p.NumCols()),
		RowDual: make([]float64, p.NumRows()),
	}
	switch ds.Status {
	case Optimal:
		sol.Status = Optimal
	case Unbounded:
		sol.Status = Infeasible
		return sol, nil
	case Infeasible:
		sol.Status = Unbounded
		return sol, nil
	default:
		sol.Status = ds.Status
		return sol, nil
	}
	// Primal canonical values are the negated duals of the dual's rows.
	xhat := make([]float64, c.ncols)
	for k := 0; k < c.ncols; k++ {
		xhat[k] = -ds.ColDualRow(k)
	}
	c.recover(p, xhat, ds.X, sol)
	obj := 0.0
	for j := 0; j < p.NumCols(); j++ {
		obj += p.obj[j] * sol.X[j]
	}
	sol.Objective = obj
	sol.Iterations = ds.Iterations
	return sol, nil
}

// ColDualRow returns the row dual of row k (alias used by the dualizer for
// readability).
func (s *Solution) ColDualRow(k int) float64 { return s.RowDual[k] }

// canonical holds a problem in the form  min ĉ·x̂  s.t.  Â·x̂ ≥ b̂, x̂ ≥ 0,
// along with the bookkeeping needed to map a canonical solution back to the
// original variables and rows.
type canonical struct {
	ncols int
	cost  []float64
	rows  [][]Entry
	rhs   []float64

	// Per original column: transformation back to original space.
	kind   []colKind
	shift  []float64 // additive shift (lb for shifted, ub for negated)
	canIdx []int     // first canonical index (second is canIdx+1 for split)

	// Per original row: canonical row indices for its lb and ub sides
	// (−1 when that side is infinite).
	lbRow []int
	ubRow []int
}

type colKind int8

const (
	colFixed colKind = iota // x = lb, eliminated
	colShift                // x = lb + x̂
	colNeg                  // x = ub − x̂
	colSplit                // x = x̂⁺ − x̂⁻
)

func canonicalize(p *Problem) (*canonical, error) {
	n := p.NumCols()
	c := &canonical{
		kind:   make([]colKind, n),
		shift:  make([]float64, n),
		canIdx: make([]int, n),
		lbRow:  make([]int, p.NumRows()),
		ubRow:  make([]int, p.NumRows()),
	}
	// Classify columns.
	for j := 0; j < n; j++ {
		lb, ub := p.colLB[j], p.colUB[j]
		switch {
		case lb == ub:
			c.kind[j] = colFixed
			c.shift[j] = lb
			c.canIdx[j] = -1
		case !math.IsInf(lb, -1):
			c.kind[j] = colShift
			c.shift[j] = lb
			c.canIdx[j] = c.ncols
			c.cost = append(c.cost, p.obj[j])
			c.ncols++
		case !math.IsInf(ub, 1):
			c.kind[j] = colNeg
			c.shift[j] = ub
			c.canIdx[j] = c.ncols
			c.cost = append(c.cost, -p.obj[j])
			c.ncols++
		default:
			c.kind[j] = colSplit
			c.canIdx[j] = c.ncols
			c.cost = append(c.cost, p.obj[j], -p.obj[j])
			c.ncols += 2
		}
	}
	// Entries of original column j expressed over canonical columns.
	expand := func(j int, coef float64) []Entry {
		switch c.kind[j] {
		case colFixed:
			return nil
		case colShift:
			return []Entry{{c.canIdx[j], coef}}
		case colNeg:
			return []Entry{{c.canIdx[j], -coef}}
		default:
			return []Entry{{c.canIdx[j], coef}, {c.canIdx[j] + 1, -coef}}
		}
	}
	// Constraint rows.
	for i, row := range p.rows {
		base := 0.0 // contribution of fixed/shifted parts at x̂ = 0
		var can []Entry
		for _, e := range row {
			switch c.kind[e.Col] {
			case colFixed, colShift:
				base += e.Coef * c.shift[e.Col]
			case colNeg:
				base += e.Coef * c.shift[e.Col]
			}
			can = append(can, expand(e.Col, e.Coef)...)
		}
		c.lbRow[i], c.ubRow[i] = -1, -1
		if lb := p.rowLB[i]; !math.IsInf(lb, -1) {
			c.lbRow[i] = len(c.rows)
			c.rows = append(c.rows, can)
			c.rhs = append(c.rhs, lb-base)
		}
		if ub := p.rowUB[i]; !math.IsInf(ub, 1) {
			neg := make([]Entry, len(can))
			for k, e := range can {
				neg[k] = Entry{e.Col, -e.Coef}
			}
			c.ubRow[i] = len(c.rows)
			c.rows = append(c.rows, neg)
			c.rhs = append(c.rhs, base-ub)
		}
	}
	// Upper-bound rows for doubly-bounded shifted columns: −x̂ ≥ −(ub−lb).
	for j := 0; j < n; j++ {
		if c.kind[j] == colShift && !math.IsInf(p.colUB[j], 1) {
			c.rows = append(c.rows, []Entry{{c.canIdx[j], -1}})
			c.rhs = append(c.rhs, -(p.colUB[j] - p.colLB[j]))
		}
	}
	return c, nil
}

// recover maps a canonical solution back into the original variable and row
// spaces. yDual holds the dual-variable values (one per canonical row).
func (c *canonical) recover(p *Problem, xhat, yDual []float64, sol *Solution) {
	for j := 0; j < p.NumCols(); j++ {
		switch c.kind[j] {
		case colFixed:
			sol.X[j] = c.shift[j]
		case colShift:
			sol.X[j] = c.shift[j] + xhat[c.canIdx[j]]
		case colNeg:
			sol.X[j] = c.shift[j] - xhat[c.canIdx[j]]
		default:
			sol.X[j] = xhat[c.canIdx[j]] - xhat[c.canIdx[j]+1]
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		y := 0.0
		if c.lbRow[i] >= 0 {
			y += yDual[c.lbRow[i]]
		}
		if c.ubRow[i] >= 0 {
			y -= yDual[c.ubRow[i]]
		}
		sol.RowDual[i] = y
	}
}
