package lp

import (
	"context"
	"math/rand"
	"testing"

	"flexile/internal/obs"
)

// perturb shifts row bounds (some tighter, some looser, so the held basis
// may become infeasible), redraws the costs, and fixes or frees a column —
// the kinds of change one level of te.MaxMin makes to the next.
func perturb(rng *rand.Rand, p *Problem) {
	for i := 0; i < p.NumRows(); i++ {
		lb, ub := p.rowLB[i], p.rowUB[i]
		d := rng.Float64()*0.4 - 0.1
		p.SetRowBounds(i, lb-d, ub+d)
		if p.rowLB[i] > p.rowUB[i] {
			p.SetRowBounds(i, lb, ub)
		}
	}
	for j := 0; j < p.NumCols(); j++ {
		p.SetCost(j, rng.Float64()*4-2)
	}
	j := rng.Intn(p.NumCols())
	if rng.Intn(2) == 0 {
		mid := (p.colLB[j] + p.colUB[j]) / 2
		p.SetColBounds(j, mid, mid)
	} else {
		p.SetColBounds(j, p.colLB[j]-0.5, p.colUB[j]+0.5)
	}
}

// TestPropertyResolveAgreesWithCold: a ladder of perturbed variants solved
// in place — each from the basis and factorization the previous one ended
// on — must reach the status and objective a cold solve of the same variant
// reaches, with a feasible point and duals that certify it.
func TestPropertyResolveAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < propertyTrials; trial++ {
		p, _ := randomFeasibleLP(rng, 1+rng.Intn(10), 2+rng.Intn(10))
		bp, err := p.Compile()
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		solver := bp.NewSolver()
		for round := 0; round < 6; round++ {
			cold, err := p.Solve()
			if err != nil {
				t.Fatalf("trial %d round %d: cold: %v", trial, round, err)
			}
			hot, err := solver.ResolveCtx(context.Background(), Variant{}, Options{})
			if err != nil {
				t.Fatalf("trial %d round %d: resolve: %v", trial, round, err)
			}
			if hot.Status != cold.Status {
				t.Fatalf("trial %d round %d: resolve finished %v, cold %v", trial, round, hot.Status, cold.Status)
			}
			if cold.Status == Optimal {
				if hot.WarmStarted != (round > 0) {
					t.Fatalf("trial %d round %d: WarmStarted = %v", trial, round, hot.WarmStarted)
				}
				if !approx(hot.Objective, cold.Objective) {
					t.Fatalf("trial %d round %d: resolve obj %v, cold %v", trial, round, hot.Objective, cold.Objective)
				}
				checkFeasible(t, p, hot.X, trial)
				if dual := dualObjective(t, trial, p, hot); !approx(hot.Objective, dual) {
					t.Fatalf("trial %d round %d: resolve violates strong duality: primal %v, dual %v", trial, round, hot.Objective, dual)
				}
				checkComplementarySlackness(t, trial, p, hot)
			}
			perturb(rng, p)
		}
	}
}

// TestPropertySetColumnAgreesWithRebuild: overwriting a column's values on a
// solver that holds a factorization — the column basic or not — and
// re-solving in place must agree with a freshly built problem carrying the
// new column, and must leave other solvers of the same BatchProblem alone.
func TestPropertySetColumnAgreesWithRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	evicted := 0
	for trial := 0; trial < propertyTrials; trial++ {
		p, _ := randomFeasibleLP(rng, 2+rng.Intn(9), 2+rng.Intn(10))
		bp, err := p.Compile()
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		solver, bystander := bp.NewSolver(), bp.NewSolver()
		before, err := bystander.Solve(Variant{}, Options{})
		if err != nil {
			t.Fatalf("trial %d: bystander: %v", trial, err)
		}
		if _, err := solver.ResolveCtx(context.Background(), Variant{}, Options{}); err != nil {
			t.Fatalf("trial %d: first solve: %v", trial, err)
		}
		// The rebuilt problem: p with its own row lists (a compiled Problem's
		// coefficients must not change — its solvers read them).
		rebuilt := *p
		rebuilt.rows = make([][]Entry, len(p.rows))
		for i, row := range p.rows {
			rebuilt.rows[i] = append([]Entry(nil), row...)
		}
		p = &rebuilt
		for round := 0; round < 4; round++ {
			// New values on column j's existing pattern; zeroing some
			// entries is allowed, adding entries elsewhere is not.
			j := rng.Intn(p.NumCols())
			vals := make([]float64, p.NumRows())
			for i, row := range p.rows {
				for k := range row {
					if row[k].Col == j {
						row[k].Coef = 0
						if rng.Intn(4) > 0 {
							row[k].Coef = rng.Float64()*4 - 2
						}
						vals[i] = row[k].Coef
					}
				}
			}
			if solver.s.status[j] == basic {
				evicted++
			}
			if err := solver.SetColumn(j, vals); err != nil {
				t.Fatalf("trial %d round %d: SetColumn: %v", trial, round, err)
			}
			cold, err := p.Solve() // p.rows now carry the new column
			if err != nil {
				t.Fatalf("trial %d round %d: cold: %v", trial, round, err)
			}
			hot, err := solver.ResolveCtx(context.Background(), Variant{}, Options{})
			if err != nil {
				t.Fatalf("trial %d round %d: resolve: %v", trial, round, err)
			}
			if hot.Status != cold.Status {
				t.Fatalf("trial %d round %d: resolve finished %v, cold %v", trial, round, hot.Status, cold.Status)
			}
			if cold.Status == Optimal {
				if !approx(hot.Objective, cold.Objective) {
					t.Fatalf("trial %d round %d: resolve obj %v, cold %v", trial, round, hot.Objective, cold.Objective)
				}
				checkFeasible(t, p, hot.X, trial)
			}
		}
		after, err := bystander.Solve(Variant{}, Options{})
		if err != nil {
			t.Fatalf("trial %d: bystander after: %v", trial, err)
		}
		assertBitIdentical(t, trial, 0, before, after)
	}
	if evicted == 0 {
		t.Fatal("no trial changed a basic column: the eviction path went untested")
	}
}

// TestSetColumnRejectsOffPattern: the sparsity pattern is frozen at Compile.
func TestSetColumnRejectsOffPattern(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", 0, 1, -1)
	y := p.AddCol("y", 0, 1, -1)
	p.AddLE("r0", 1, Entry{x, 1}, Entry{y, 1})
	p.AddLE("r1", 1, Entry{y, 1})
	bp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	solver := bp.NewSolver()
	if err := solver.SetColumn(x, []float64{2, 0}); err != nil {
		t.Fatalf("on-pattern change rejected: %v", err)
	}
	if err := solver.SetColumn(x, []float64{2, 3}); err == nil {
		t.Fatal("entry outside the compiled pattern accepted")
	}
	if err := solver.SetColumn(x, []float64{2}); err == nil {
		t.Fatal("short value vector accepted")
	}
	if err := solver.SetColumn(2, []float64{0, 0}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

// TestResolveSkipsTheRestart pins what ResolveCtx saves: re-solving an
// unchanged optimal problem takes no pivot and no refactorization, where the
// StartBasis route pays one O(m³) refactorization to reinstall the basis.
func TestResolveSkipsTheRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	p, _ := randomFeasibleLP(rng, 10, 12)
	bp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	solver := bp.NewSolver()
	first, err := solver.Solve(Variant{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := func(solve func(context.Context) (*Solution, error)) obs.LPMetrics {
		col := obs.New()
		if _, err := solve(obs.With(context.Background(), col)); err != nil {
			t.Fatal(err)
		}
		return col.Snapshot().LP
	}
	viaBasis := work(func(ctx context.Context) (*Solution, error) {
		return solver.SolveCtx(ctx, Variant{}, Options{StartBasis: first.Basis()})
	})
	inPlace := work(func(ctx context.Context) (*Solution, error) {
		return solver.ResolveCtx(ctx, Variant{}, Options{})
	})
	if viaBasis.Refactorizations != 1 || viaBasis.WarmStarts != 1 {
		t.Fatalf("StartBasis re-solve: %d refactorizations, %d warm starts; want 1, 1", viaBasis.Refactorizations, viaBasis.WarmStarts)
	}
	if inPlace.Pivots != 0 || inPlace.Refactorizations != 0 || inPlace.WarmStarts != 1 {
		t.Fatalf("in-place re-solve: %d pivots, %d refactorizations, %d warm starts; want 0, 0, 1",
			inPlace.Pivots, inPlace.Refactorizations, inPlace.WarmStarts)
	}
}
