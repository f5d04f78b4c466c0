package lp

import (
	"math/rand"
	"testing"
)

// TestDualInfeasibleVerdict: network LPs whose capacities are cut so far that
// no flow fits are re-solved from their held optimal basis, which stays dual
// feasible, so the dual simplex runs until a row cannot reach its bound. The
// verdict must come from the dual after at least one dual pivot, checked
// against the dense pivot row on fresh factors, and the every-iteration-
// refresh reference must agree that the LP is infeasible (trio.agree).
func TestDualInfeasibleVerdict(t *testing.T) {
	verdicts := 0
	for trial := 0; trial < 4; trial++ {
		p := networkLP(rand.New(rand.NewSource(int64(11+trial))), 8, 24, 8, 0)
		tr := newTrio(t, p)
		if cold := tr.solve(trial, 0, Options{}); cold.Status != Optimal {
			t.Fatalf("trial %d: cold solve %v", trial, cold.Status)
		}
		for i := p.NumRows() - 24; i < p.NumRows(); i++ {
			p.SetRowBounds(i, p.rowLB[i], 0.3*p.rowUB[i])
		}
		got := tr.resolve(trial, 1, Options{})
		s := tr.stepped.s
		t.Logf("trial %d: %v after %d dual pivots, %d phase-1 pivots", trial, got.Status, s.dualPivots, s.phase1Pivots)
		if got.Status != Infeasible || s.phase1Pivots != 0 {
			t.Fatalf("trial %d: %v with %d phase-1 pivots: the dual did not decide", trial, got.Status, s.phase1Pivots)
		}
		if s.dualPivots > 0 {
			verdicts += tr.l.dualInfeasible
		}
	}
	if verdicts == 0 {
		t.Fatal("no dual reached its infeasible verdict after pivoting: the path went untested")
	}
}

// TestDualStallHandsOver: with every cost zero, no dual step raises the
// objective by more than the cost jitter, so a re-solve that needs more than
// dualStallLimit dual pivots stalls. The dual must hand its basis to the
// primal, which finishes from there (phase-1 pivots, no singular restart),
// well inside MaxIters, bit for bit like the production twin.
func TestDualStallHandsOver(t *testing.T) {
	p := networkLP(rand.New(rand.NewSource(4)), 14, 48, 18, 0)
	for j := range p.obj {
		p.obj[j] = 0
	}
	tr := newTrio(t, p)
	tr.solve(0, 0, Options{})
	for i := p.NumRows() - 48; i < p.NumRows(); i++ {
		p.SetRowBounds(i, p.rowLB[i], 0.8*p.rowUB[i])
	}
	got := tr.resolve(0, 1, Options{})
	s := tr.stepped.s
	t.Logf("%v after %d dual pivots, then %d phase-1 and %d phase-2 pivots; MaxIters %d", got.Status, s.dualPivots, s.phase1Pivots, s.phase2Pivots, s.opts.MaxIters)
	if tr.l.handovers != 1 || s.dualPivots <= dualStallLimit || s.phase1Pivots == 0 || s.singularRestarts != 0 {
		t.Fatalf("%d hand-overs after %d dual pivots, %d phase-1 pivots, %d singular restarts: the dual did not hand over", tr.l.handovers, s.dualPivots, s.phase1Pivots, s.singularRestarts)
	}
	if got.Status != Optimal || got.Iterations > s.opts.MaxIters/10 {
		t.Fatalf("%v after %d iterations (MaxIters %d)", got.Status, got.Iterations, s.opts.MaxIters)
	}
}

// BenchmarkDualResolve is the branch-and-bound re-solve: a network LP
// (150 rows, 360 columns) solved once, then the child that halves the upper
// bound of its first flow the LP can route around, on one compiled solver. cold-primal
// solves the child from the logical basis (phase 1, then phase 2);
// warm-dual from the parent's optimal basis, which the bound change leaves
// dual feasible. pivots/op and allocs/op are per child solve.
func BenchmarkDualResolve(b *testing.B) {
	p := networkLP(rand.New(rand.NewSource(101)), 10, 30, 12, 0)
	bp, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	bs := bp.NewSolver()
	parent, err := bs.Solve(Variant{}, Options{})
	if err != nil || parent.Status != Optimal {
		b.Fatalf("parent: %v, %v", parent, err)
	}
	ub := make([]float64, p.NumCols())
	for j := range ub {
		ub[j] = p.ColUB(j)
	}
	// The first flow the LP can route around.
	child := Variant{ColUB: ub}
	for j := range ub {
		if parent.X[j] <= 0 {
			continue
		}
		ub[j] = parent.X[j] / 2
		if sol, err := bs.Solve(child, Options{}); err == nil && sol.Status == Optimal {
			break
		}
		ub[j] = p.ColUB(j)
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"cold-primal", Options{}},
		{"warm-dual", Options{StartBasis: parent.Basis()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			pivots := 0
			for i := 0; i < b.N; i++ {
				sol, err := bs.Solve(child, mode.opts)
				if err != nil || sol.Status != Optimal {
					b.Fatalf("child: %v, %v", sol, err)
				}
				pivots += sol.Iterations
			}
			if mode.opts.StartBasis != nil && bs.s.dualPivots == 0 {
				b.Fatal("the warm re-solve took no dual pivot")
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		})
	}
}
