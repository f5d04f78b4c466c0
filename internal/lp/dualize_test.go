package lp

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The LP dual as a test fixture. Every problem p has a canonical form
// min ĉ·x̂ s.t. Â·x̂ ≥ b̂, x̂ ≥ 0 (fixed columns eliminated, bounded ones
// shifted or negated, free ones split, range rows doubled) and a dual
// max b̂·y s.t. Âᵀy ≤ ĉ, y ≥ 0 with the same optimum. dualLP builds that dual
// as a Problem: a second LP of the transposed shape — rows ≫ columns become
// columns ≫ rows — whose optimum the primal's must match, and whose pivot
// counts say how the simplex copes with the shape.

// dualLP returns the dual of p's canonical form, posed as the minimization
// of −b̂·y, and the offset c·x − ĉ·x̂ between the two forms' objectives.
func dualLP(p *Problem) (*Problem, float64) {
	c := canonicalize(p)
	d := NewProblem()
	for i, b := range c.rhs {
		d.AddCol(fmt.Sprintf("y%d", i), 0, Inf, -b)
	}
	colEntries := make([][]Entry, c.ncols)
	for i, row := range c.rows {
		for _, e := range row {
			colEntries[e.Col] = append(colEntries[e.Col], Entry{Col: i, Coef: e.Coef})
		}
	}
	for k := 0; k < c.ncols; k++ {
		d.AddLE(fmt.Sprintf("x%d", k), c.cost[k], colEntries[k]...)
	}
	return d, c.offset
}

// solveDualized solves dualLP(p) and reports it in p's terms: the status
// (an unbounded dual is an infeasible primal, and vice versa), p's optimum
// and the dual solve's pivots.
func solveDualized(t *testing.T, p *Problem) *Solution {
	t.Helper()
	d, offset := dualLP(p)
	ds, err := d.Solve()
	if err != nil {
		t.Fatalf("dualized: %v", err)
	}
	sol := &Solution{Status: ds.Status, Iterations: ds.Iterations}
	switch ds.Status {
	case Optimal:
		sol.Objective = offset - ds.Objective
	case Unbounded:
		sol.Status = Infeasible
	case Infeasible:
		sol.Status = Unbounded
	}
	return sol
}

// canonical holds a problem in the form  min ĉ·x̂  s.t.  Â·x̂ ≥ b̂, x̂ ≥ 0.
type canonical struct {
	ncols int
	cost  []float64
	rows  [][]Entry
	rhs   []float64
	// offset is the cost of x̂ = 0 in p's terms: c·x = ĉ·x̂ + offset.
	offset float64

	// Per original column: how it maps to canonical ones.
	kind   []colKind
	shift  []float64 // additive shift (lb for shifted, ub for negated)
	canIdx []int     // first canonical index (second is canIdx+1 for split)
}

type colKind int8

const (
	colFixed colKind = iota // x = lb, eliminated
	colShift                // x = lb + x̂
	colNeg                  // x = ub − x̂
	colSplit                // x = x̂⁺ − x̂⁻
)

func canonicalize(p *Problem) *canonical {
	n := p.NumCols()
	c := &canonical{
		kind:   make([]colKind, n),
		shift:  make([]float64, n),
		canIdx: make([]int, n),
	}
	// Classify columns.
	for j := 0; j < n; j++ {
		lb, ub := p.colLB[j], p.colUB[j]
		switch {
		case lb == ub:
			c.kind[j] = colFixed
			c.shift[j] = lb
			c.canIdx[j] = -1
			c.offset += p.obj[j] * lb
		case !math.IsInf(lb, -1):
			c.kind[j] = colShift
			c.shift[j] = lb
			c.offset += p.obj[j] * lb
			c.canIdx[j] = c.ncols
			c.cost = append(c.cost, p.obj[j])
			c.ncols++
		case !math.IsInf(ub, 1):
			c.kind[j] = colNeg
			c.shift[j] = ub
			c.offset += p.obj[j] * ub
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
		if lb := p.rowLB[i]; !math.IsInf(lb, -1) {
			c.rows = append(c.rows, can)
			c.rhs = append(c.rhs, lb-base)
		}
		if ub := p.rowUB[i]; !math.IsInf(ub, 1) {
			neg := make([]Entry, len(can))
			for k, e := range can {
				neg[k] = Entry{e.Col, -e.Coef}
			}
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
	return c
}

// readLP parses the fixture format of testdata/*.lp: a line "n m", one line
// "lb ub cost" per column, then one line "lb ub k col coef …" per row with
// its k entries.
func readLP(t *testing.T, path string) *Problem {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(string(data))
	num := func() float64 {
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		f = f[1:]
		return v
	}
	p := NewProblem()
	n, m := int(num()), int(num())
	for j := 0; j < n; j++ {
		lb, ub, cost := num(), num(), num()
		p.AddCol(fmt.Sprintf("c%d", j), lb, ub, cost)
	}
	for i := 0; i < m; i++ {
		lb, ub, k := num(), num(), int(num())
		es := make([]Entry, k)
		for e := range es {
			es[e] = Entry{Col: int(num()), Coef: num()}
		}
		p.AddRow(fmt.Sprintf("r%d", i), lb, ub, es...)
	}
	return p
}

// TestSprintCvarFlowDual: Cvar-Flow-St's LP on Sprint at Small scale
// (testdata/sprint_cvarflow_st.lp, 322 rows × 441 columns) and its
// 487-row × 322-column dual. The primal solves to the objective behind Fig.
// 11's 21.2 % in a few hundred pivots. The dual is the most degenerate LP
// in the repository: it must reach the same optimum within MaxIters (a
// switch to Bland's rule after 2000 flat pivots used to cycle it into the
// iteration limit). Its pivot count is logged.
func TestSprintCvarFlowDual(t *testing.T) {
	p := readLP(t, "testdata/sprint_cvarflow_st.lp")
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-0.310246939) > 1e-8 {
		t.Fatalf("primal: %v, objective %.9f, want optimal 0.310246939", s.Status, s.Objective)
	}
	d, _ := dualLP(p)
	if d.NumRows() != 487 || d.NumCols() != 322 {
		t.Fatalf("dual is %d×%d, want 487×322", d.NumRows(), d.NumCols())
	}
	ds := solveDualized(t, p)
	t.Logf("primal %d×%d: %d pivots; dual %d×%d: %v after %d pivots (objective %.9f)",
		p.NumRows(), p.NumCols(), s.Iterations, d.NumRows(), d.NumCols(), ds.Status, ds.Iterations, ds.Objective)
	if ds.Status != Optimal || math.Abs(ds.Objective-s.Objective) > 1e-6 {
		t.Fatalf("dual: %v, objective %.9f, want optimal at the primal's %.9f", ds.Status, ds.Objective, s.Objective)
	}
}
