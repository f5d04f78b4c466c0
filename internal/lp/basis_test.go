package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"flexile/internal/obs"
)

// TestWarmStartSameProblem: re-solving from the optimal basis takes (near)
// zero pivots and reproduces the optimum.
func TestWarmStartSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p, _ := randomFeasibleLP(rng, 12, 16)
	cold, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Skip("random LP not optimal")
	}
	warm, err := p.SolveOpts(Options{StartBasis: cold.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if !approx(warm.Objective, cold.Objective) {
		t.Fatalf("warm obj %v vs cold %v", warm.Objective, cold.Objective)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
}

// TestWarmStartAfterBoundChange: the branch-and-bound pattern — fix one
// variable and re-solve from the parent basis. The result must match a
// cold solve exactly and generally in fewer pivots.
func TestWarmStartAfterBoundChange(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	warmTotal, coldTotal := 0, 0
	for trial := 0; trial < 30; trial++ {
		p, _ := randomFeasibleLP(rng, 10, 14)
		base, err := p.Solve()
		if err != nil || base.Status != Optimal {
			continue
		}
		// Fix a random column to one of its bounds.
		j := rng.Intn(p.NumCols())
		lb, ub := p.ColLB(j), p.ColUB(j)
		fixAt := lb
		if rng.Intn(2) == 0 {
			fixAt = ub
		}
		p.SetColBounds(j, fixAt, fixAt)

		cold, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		warm, err := p.SolveOpts(Options{StartBasis: base.Basis()})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != warm.Status {
			t.Fatalf("trial %d: statuses differ: cold %v warm %v", trial, cold.Status, warm.Status)
		}
		if cold.Status == Optimal && !approx(cold.Objective, warm.Objective) {
			t.Fatalf("trial %d: cold %v warm %v", trial, cold.Objective, warm.Objective)
		}
		warmTotal += warm.Iterations
		coldTotal += cold.Iterations
		p.SetColBounds(j, lb, ub)
	}
	if warmTotal > coldTotal {
		t.Logf("warm %d vs cold %d iterations (warm start not helping on tiny LPs is acceptable)", warmTotal, coldTotal)
	}
}

// TestWidenedWarmStartIsPrimalFeasible: the branch-and-bound incumbent
// pattern in reverse — solve with some columns fixed at a bound, then give
// them back their bounds. The fixed solve's basis, widened onto its point,
// installs as a primal-feasible start: no phase-1 pivot, and the optimum
// of a cold solve. Installed as it is, a column fixed at its upper bound
// drops to its lower one and some trials need phase 1 again.
func TestWidenedWarmStartIsPrimalFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	solved, unwidenedPhase1 := 0, 0
	for trial := 0; trial < 60; trial++ {
		p, x0 := randomFeasibleLP(rng, 4+rng.Intn(6), 4+rng.Intn(8))
		n := p.NumCols()
		lb, ub := make([]float64, n), make([]float64, n)
		for j := range lb {
			lb[j], ub[j] = p.ColLB(j), p.ColUB(j)
		}
		// Fix about half the columns at the bound nearest x0, so the fixed
		// problem stays feasible more often than not.
		var cols []int
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			cols = append(cols, j)
			v := lb[j]
			if x0[j]-lb[j] > ub[j]-x0[j] {
				v = ub[j]
			}
			p.SetColBounds(j, v, v)
		}
		fixed, err := p.Solve()
		for j := range lb {
			p.SetColBounds(j, lb[j], ub[j])
		}
		if err != nil {
			t.Fatalf("trial %d: fixed solve: %v", trial, err)
		}
		if fixed.Status != Optimal {
			continue
		}
		solved++
		cold, err := p.Solve()
		if err != nil || cold.Status != Optimal {
			t.Fatalf("trial %d: cold solve %v, %v", trial, cold, err)
		}
		solveFrom := func(b *Basis) (*Solution, obs.LPMetrics) {
			col := obs.New()
			s, err := p.SolveCtx(obs.With(context.Background(), col), Options{StartBasis: b})
			if err != nil {
				t.Fatalf("trial %d: warm solve: %v", trial, err)
			}
			return s, col.Snapshot().LP
		}
		warm, m := solveFrom(fixed.Basis().Widened(cols, fixed.X, lb, ub))
		if m.WarmStarts != 1 || m.Phase1Pivots != 0 {
			t.Fatalf("trial %d: widened basis installed %d times with %d phase-1 pivots, want installed with 0",
				trial, m.WarmStarts, m.Phase1Pivots)
		}
		if warm.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > DefaultTol*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: widened start %v %v, cold optimum %v", trial, warm.Status, warm.Objective, cold.Objective)
		}
		if _, m := solveFrom(fixed.Basis()); m.Phase1Pivots > 0 {
			unwidenedPhase1++
		}
	}
	t.Logf("%d fixed solves optimal; %d unwidened starts needed phase 1", solved, unwidenedPhase1)
	if solved < 20 || unwidenedPhase1 == 0 {
		t.Fatalf("%d fixed solves optimal, %d unwidened starts needed phase 1: the trials do not exercise the re-seat",
			solved, unwidenedPhase1)
	}
}

// TestWarmStartIncompatibleIgnored: a basis from a different problem shape
// must be ignored, not crash.
func TestWarmStartIncompatibleIgnored(t *testing.T) {
	p1 := NewProblem()
	a := p1.AddCol("a", 0, 1, -1)
	p1.AddLE("r", 1, Entry{a, 1})
	s1, err := p1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewProblem()
	x := p2.AddCol("x", 0, 5, -1)
	y := p2.AddCol("y", 0, 5, -1)
	p2.AddLE("r", 6, Entry{x, 1}, Entry{y, 1})
	s2, err := p2.SolveOpts(Options{StartBasis: s1.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Status != Optimal || !approx(s2.Objective, -6) {
		t.Fatalf("status %v obj %v", s2.Status, s2.Objective)
	}
}

// TestBasisRecorded: every optimal solve carries a basis.
func TestBasisRecorded(t *testing.T) {
	p := NewProblem()
	x := p.AddCol("x", 0, 3, -1)
	p.AddLE("r", 2, Entry{x, 1})
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Basis() == nil {
		t.Fatal("no basis recorded")
	}
	if len(s.Basis().colStat) != 1 || len(s.Basis().rowStat) != 1 {
		t.Fatal("basis shape wrong")
	}
}

func BenchmarkWarmVsColdResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	p, _ := randomFeasibleLP(rng, 60, 80)
	base, err := p.Solve()
	if err != nil || base.Status != Optimal {
		b.Skip("base not optimal")
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SolveOpts(Options{StartBasis: base.Basis()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
