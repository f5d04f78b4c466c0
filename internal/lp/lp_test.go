package lp

import (
	"math"
	"math/rand"
	"testing"
)

const eps = 1e-6

func approx(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

// solveBoth solves p and its LP dual (dualLP); the second solution carries
// status and objective in p's terms, and no point.
func solveBoth(t *testing.T, p *Problem) (*Solution, *Solution) {
	t.Helper()
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s, solveDualized(t, p)
}

func TestTrivialBoundsOnly(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", 1, 5, 2)   // min 2x → x = 1
	y := p.AddCol("y", -3, 4, -1) // min -y → y = 4
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.X[x], 1) || !approx(s.X[y], 4) {
		t.Fatalf("x=%v y=%v", s.X[x], s.X[y])
	}
	if !approx(s.Objective, 2*1-4) {
		t.Fatalf("obj=%v", s.Objective)
	}
}

func TestSimple2D(t *testing.T) {
	// max x+y s.t. x+2y ≤ 4, 3x+y ≤ 6, x,y ≥ 0  → x=1.6, y=1.2, obj=2.8.
	p := NewProblem()
	x := p.AddCol("x", 0, Inf, -1)
	y := p.AddCol("y", 0, Inf, -1)
	p.AddLE("r1", 4, Entry{x, 1}, Entry{y, 2})
	p.AddLE("r2", 6, Entry{x, 3}, Entry{y, 1})
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal {
			t.Fatalf("status = %v", sol.Status)
		}
		if !approx(sol.Objective, -2.8) {
			t.Fatalf("obj = %v, want -2.8", sol.Objective)
		}
	}
	if !approx(s.X[x], 1.6) || !approx(s.X[y], 1.2) {
		t.Fatalf("x=%v y=%v", s.X[x], s.X[y])
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2x+3y s.t. x+y = 10, x ≥ 3, y ≥ 2 → x=8, y=2, obj=22.
	p := NewProblem()
	x := p.AddCol("x", 3, Inf, 2)
	y := p.AddCol("y", 2, Inf, 3)
	p.AddEQ("sum", 10, Entry{x, 1}, Entry{y, 1})
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal || !approx(sol.Objective, 22) {
			t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
		}
	}
	if !approx(s.X[x], 8) || !approx(s.X[y], 2) {
		t.Fatalf("x=%v y=%v", s.X[x], s.X[y])
	}
}

func TestRangeRow(t *testing.T) {
	// min x s.t. 2 ≤ x + y ≤ 5, 0 ≤ x ≤ 10, 0 ≤ y ≤ 1 → x = 1, y = 1.
	p := NewProblem()
	x := p.AddCol("x", 0, 10, 1)
	y := p.AddCol("y", 0, 1, 0)
	p.AddRow("range", 2, 5, Entry{x, 1}, Entry{y, 1})
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal || !approx(sol.Objective, 1) {
			t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
		}
	}
}

func TestFreeVariable(t *testing.T) {
	// min x² style trap: min -x + y with x free, x ≤ y, y ≤ 3 → x=y=3, obj=0.
	p := NewProblem()
	x := p.AddCol("x", -Inf, Inf, -1)
	y := p.AddCol("y", -Inf, 3, 1)
	p.AddLE("xley", 0, Entry{x, 1}, Entry{y, -1})
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal || !approx(sol.Objective, 0) {
			t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
		}
	}
	// The objective is flat along x = y ≤ 3: any such point is optimal.
	if s.X[x] > s.X[y]+eps || s.X[y] > 3+eps {
		t.Fatalf("infeasible point x=%v y=%v", s.X[x], s.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", 0, 1, 1)
	p.AddGE("big", 5, Entry{x, 1})
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
	if d := solveDualized(t, p); d.Status != Infeasible {
		t.Fatalf("dualized status = %v, want infeasible", d.Status)
	}
}

func TestInfeasibleConflictingRows(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", -Inf, Inf, 0)
	y := p.AddCol("y", -Inf, Inf, 0)
	p.AddGE("a", 4, Entry{x, 1}, Entry{y, 1})
	p.AddLE("b", 1, Entry{x, 1}, Entry{y, 1})
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", 0, Inf, -1)
	y := p.AddCol("y", 0, Inf, 0)
	p.AddGE("r", 1, Entry{x, 1}, Entry{y, 1})
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", 2, 2, 1)
	y := p.AddCol("y", 0, Inf, 1)
	p.AddGE("r", 5, Entry{x, 1}, Entry{y, 1})
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal || !approx(sol.Objective, 5) {
			t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
		}
	}
	if !approx(s.X[x], 2) || !approx(s.X[y], 3) {
		t.Fatalf("x=%v y=%v", s.X[x], s.X[y])
	}
}

func TestDegenerateTransportation(t *testing.T) {
	// A classic degenerate transportation problem.
	// Supplies {10, 10}, demands {10, 10}, costs c[i][j].
	p := NewProblem()
	costs := [2][2]float64{{1, 4}, {2, 1}}
	var v [2][2]int
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			v[i][j] = p.AddCol("x", 0, Inf, costs[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		p.AddEQ("supply", 10, Entry{v[i][0], 1}, Entry{v[i][1], 1})
	}
	for j := 0; j < 2; j++ {
		p.AddEQ("demand", 10, Entry{v[0][j], 1}, Entry{v[1][j], 1})
	}
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal || !approx(sol.Objective, 20) {
			t.Fatalf("status=%v obj=%v want 20", sol.Status, sol.Objective)
		}
	}
}

func TestRowDualSigns(t *testing.T) {
	// min x s.t. x ≥ 2 → dual of the ≥ row is +1 (tight lower bound).
	p := NewProblem()
	x := p.AddCol("x", 0, Inf, 1)
	r := p.AddGE("r", 2, Entry{x, 1})
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.RowDual[r], 1) {
		t.Fatalf("row dual = %v, want 1", s.RowDual[r])
	}

	// max x s.t. x ≤ 3 (posed as min −x) → dual of the ≤ row is −1.
	p2 := NewProblem()
	x2 := p2.AddCol("x", 0, Inf, -1)
	r2 := p2.AddLE("r", 3, Entry{x2, 1})
	s2, err := p2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s2.RowDual[r2], -1) {
		t.Fatalf("row dual = %v, want -1", s2.RowDual[r2])
	}
}

// TestLagrangianIdentity checks that RowDual is the final basis's
// multiplier vector y = c_B·B⁻¹, the dual extraction Benders cuts read: the
// reduced cost c_j − y·A_j of every basic column and the dual of every row
// whose logical is basic vanish, so c·x* = Σ y_i·a_i·x* + Σ d_j·x_j is
// carried by the nonbasic variables at their bounds alone.
func TestLagrangianIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p, _ := randomFeasibleLP(rng, 6, 9)
		s, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Optimal {
			continue
		}
		b := s.Basis()
		rc, acts := reducedCosts(p, s.RowDual), rowActivity(p, s.X)
		rhs := 0.0
		for j, d := range rc {
			if b.colStat[j] == basic {
				if !approx(d, 0) {
					t.Fatalf("trial %d: basic column %d has reduced cost %v", trial, j, d)
				}
				continue
			}
			rhs += d * s.X[j]
		}
		for i, y := range s.RowDual {
			if b.rowStat[i] == basic {
				if !approx(y, 0) {
					t.Fatalf("trial %d: row %d, its logical basic, has dual %v", trial, i, y)
				}
				continue
			}
			rhs += y * acts[i]
		}
		if !approx(s.Objective, rhs) {
			t.Fatalf("trial %d: lagrangian identity broken: %v vs %v", trial, s.Objective, rhs)
		}
	}
}

// randomFeasibleLP builds a random LP guaranteed feasible (a random x0
// within bounds satisfies all rows) and bounded (all variables have finite
// bounds).
func randomFeasibleLP(rng *rand.Rand, m, n int) (*Problem, []float64) {
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		lb := rng.Float64()*4 - 2
		ub := lb + rng.Float64()*4
		p.AddCol("x", lb, ub, rng.Float64()*4-2)
		x0[j] = lb + rng.Float64()*(ub-lb)
	}
	for i := 0; i < m; i++ {
		var es []Entry
		act := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				c := rng.Float64()*4 - 2
				es = append(es, Entry{j, c})
				act += c * x0[j]
			}
		}
		if len(es) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.AddLE("r", act+rng.Float64(), es...)
		case 1:
			p.AddGE("r", act-rng.Float64(), es...)
		default:
			p.AddRow("r", act-rng.Float64(), act+rng.Float64(), es...)
		}
	}
	return p, x0
}

// TestPrimalVsDualizedRandom cross-checks each of many random feasible
// bounded LPs against its dual (dualLP): the same optimum.
func TestPrimalVsDualizedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(8)
		n := 2 + rng.Intn(8)
		p, _ := randomFeasibleLP(rng, m, n)
		s, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d := solveDualized(t, p)
		if s.Status != Optimal || d.Status != Optimal {
			t.Fatalf("trial %d: statuses %v / %v", trial, s.Status, d.Status)
		}
		if !approx(s.Objective, d.Objective) {
			t.Fatalf("trial %d: primal obj %v vs dualized %v", trial, s.Objective, d.Objective)
		}
		checkFeasible(t, p, s.X, trial)
	}
}

// reducedCosts is c_j − y·A_j for every column of p at row duals y: a
// solution's reduced costs, from its RowDual.
func reducedCosts(p *Problem, y []float64) []float64 {
	d := append([]float64(nil), p.obj...)
	for i, row := range p.rows {
		for _, e := range row {
			d[e.Col] -= y[i] * e.Coef
		}
	}
	return d
}

// rowActivity is a_i·x for every row of p.
func rowActivity(p *Problem, x []float64) []float64 {
	acts := make([]float64, p.NumRows())
	for i, row := range p.rows {
		for _, e := range row {
			acts[i] += e.Coef * x[e.Col]
		}
	}
	return acts
}

func checkFeasible(t *testing.T, p *Problem, x []float64, trial int) {
	t.Helper()
	const ftol = 1e-6
	for j := 0; j < p.NumCols(); j++ {
		if x[j] < p.colLB[j]-ftol || x[j] > p.colUB[j]+ftol {
			t.Fatalf("trial %d: x[%d]=%v outside [%v,%v]", trial, j, x[j], p.colLB[j], p.colUB[j])
		}
	}
	for i, act := range rowActivity(p, x) {
		if act < p.rowLB[i]-ftol || act > p.rowUB[i]+ftol {
			t.Fatalf("trial %d: row %d activity %v outside [%v,%v]", trial, i, act, p.rowLB[i], p.rowUB[i])
		}
	}
}

// TestMaxFlowLP models max flow on a small graph as an LP and checks the
// known optimum — representative of the tunnel-routing LPs used throughout
// the repository.
func TestMaxFlowLP(t *testing.T) {
	// Graph: s→a (3), s→b (2), a→t (2), b→t (3), a→b (1). Max flow = 5? No:
	// s→a→t carries 2, s→a→b→t carries 1, s→b→t carries 2 → total 5 but
	// s→a has cap 3 and carries 3, s→b carries 2 → max flow = 5.
	p := NewProblem()
	sa := p.AddCol("sa", 0, 3, 0)
	sb := p.AddCol("sb", 0, 2, 0)
	at := p.AddCol("at", 0, 2, 0)
	bt := p.AddCol("bt", 0, 3, 0)
	ab := p.AddCol("ab", 0, 1, 0)
	f := p.AddCol("f", 0, Inf, -1) // maximize total flow
	p.AddEQ("consA", 0, Entry{sa, 1}, Entry{at, -1}, Entry{ab, -1})
	p.AddEQ("consB", 0, Entry{sb, 1}, Entry{ab, 1}, Entry{bt, -1})
	p.AddEQ("src", 0, Entry{sa, 1}, Entry{sb, 1}, Entry{f, -1})
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal || !approx(sol.Objective, -5) {
			t.Fatalf("status=%v obj=%v want -5", sol.Status, sol.Objective)
		}
	}
}

// TestDuplicateEntries verifies duplicate column coefficients in one row
// are summed.
func TestDuplicateEntries(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", 0, Inf, 1)
	p.AddGE("r", 6, Entry{x, 1}, Entry{x, 2}) // effectively 3x ≥ 6
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.X[x], 2) {
		t.Fatalf("x=%v want 2", s.X[x])
	}
}

// TestManyRowsDualized exercises the row-heavy shape of the CVaR LPs, and
// its column-heavy dual.
func TestManyRowsDualized(t *testing.T) {
	// min α + Σ_q p_q s_q / (1-β) with s_q ≥ loss_q − α: CVaR of a fixed
	// loss distribution. Optimum: α = VaR_β, objective = CVaR_β.
	losses := []float64{0, 0.1, 0.2, 0.5, 1.0}
	probs := []float64{0.9, 0.04, 0.03, 0.02, 0.01}
	beta := 0.95
	p := NewProblem()
	alpha := p.AddCol("alpha", -Inf, Inf, 1)
	for q := range losses {
		s := p.AddCol("s", 0, Inf, probs[q]/(1-beta))
		p.AddGE("cvar", losses[q], Entry{s, 1}, Entry{alpha, 1})
	}
	// CVaR at 95%: worst 5% mass = {1.0: 0.01, 0.5: 0.02, 0.2: 0.02 of its
	// 0.03} → (0.01·1.0 + 0.02·0.5 + 0.02·0.2)/0.05 = 0.48.
	s, d := solveBoth(t, p)
	for _, sol := range []*Solution{s, d} {
		if sol.Status != Optimal || !approx(sol.Objective, 0.48) {
			t.Fatalf("status=%v obj=%v want 0.48", sol.Status, sol.Objective)
		}
	}
}

func TestIterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := randomFeasibleLP(rng, 10, 10)
	s, err := p.SolveOpts(Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal {
		// A 1-iteration budget can still be optimal for trivial problems;
		// accept but verify feasibility then.
		checkFeasible(t, p, s.X, 0)
	} else if s.Status != IterLimit {
		t.Fatalf("status = %v", s.Status)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || s.Objective != 0 {
		t.Fatalf("empty problem: %v %v", s.Status, s.Objective)
	}
}

func TestNoRows(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", -1, 7, -2)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.X[x], 7) {
		t.Fatalf("x=%v status=%v", s.X[x], s.Status)
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p, _ := randomFeasibleLP(rng, 60, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDegenerateManyIdenticalRows: a pathologically degenerate LP (many
// duplicated constraints) must solve in a sane number of pivots — this is
// the regression guard for the long-step phase-1 ratio test and the
// phase-2 cost perturbation, without which CVaR-style formulations stalled
// for tens of thousands of iterations.
func TestDegenerateManyIdenticalRows(t *testing.T) {
	p := NewProblem()
	n := 30
	cols := make([]int, n)
	for j := 0; j < n; j++ {
		cols[j] = p.AddCol("x", 0, Inf, -1)
	}
	// 400 near-identical covering rows plus a shared capacity row.
	for i := 0; i < 400; i++ {
		var es []Entry
		for j := 0; j < n; j++ {
			es = append(es, Entry{cols[j], 1})
		}
		p.AddGE("cover", 1, es...)
	}
	var es []Entry
	for j := 0; j < n; j++ {
		es = append(es, Entry{cols[j], 1})
	}
	p.AddLE("cap", 5, es...)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -5) {
		t.Fatalf("status=%v obj=%v want -5", s.Status, s.Objective)
	}
	if s.Iterations > 2000 {
		t.Fatalf("degenerate LP took %d iterations", s.Iterations)
	}
}

// Property: scaling all costs by k > 0 scales the optimum by k and keeps
// the argmin (up to ties).
func TestCostScalingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		p, _ := randomFeasibleLP(rng, 8, 10)
		base, err := p.Solve()
		if err != nil || base.Status != Optimal {
			continue
		}
		k := 1 + rng.Float64()*5
		for j := 0; j < p.NumCols(); j++ {
			p.SetCost(j, p.Cost(j)*k)
		}
		scaled, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if scaled.Status != Optimal || !approx(scaled.Objective, k*base.Objective) {
			t.Fatalf("trial %d: scaled obj %v, want %v", trial, scaled.Objective, k*base.Objective)
		}
	}
}
