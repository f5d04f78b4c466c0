package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"flexile/internal/obs"
)

// relaxRows loosens every row bound of p by delta, keeping any feasible
// point feasible (and the LP bounded — randomFeasibleLP's columns all have
// finite bounds) while moving the optimum.
func relaxRows(p *Problem, delta float64) {
	for i := 0; i < p.NumRows(); i++ {
		lb, ub := p.rowLB[i], p.rowUB[i]
		if !math.IsInf(lb, -1) {
			lb -= delta
		}
		if !math.IsInf(ub, 1) {
			ub += delta
		}
		p.SetRowBounds(i, lb, ub)
	}
}

// TestPropertyWarmAgreesWithCold: across the random battery, a solve warm-
// started from a previous basis must report the same objective as the cold
// solve of the same problem (within tolerance), both on an unchanged
// problem (the re-solve pattern) and after a bound change (the Benders /
// branch-and-bound pattern), and the warm solve must actually install the
// basis.
func TestPropertyWarmAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < propertyTrials; trial++ {
		m := 1 + rng.Intn(10)
		n := 2 + rng.Intn(10)
		p, _ := randomFeasibleLP(rng, m, n)
		ctx, col := obsCtx()
		cold, err := p.SolveCtx(ctx, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		if cold.Status != Optimal {
			t.Fatalf("trial %d: cold finished %v", trial, cold.Status)
		}
		if n := col.Snapshot().LP.WarmStarts; n != 0 {
			t.Fatalf("trial %d: cold solve counted %d warm starts", trial, n)
		}
		basis := cold.Basis()
		if basis == nil {
			t.Fatalf("trial %d: no basis recorded", trial)
		}

		// Re-solve of the identical problem: must accept the basis and
		// reproduce the objective near-instantly.
		warm, err := p.SolveCtx(ctx, Options{StartBasis: basis})
		if err != nil {
			t.Fatalf("trial %d: warm re-solve: %v", trial, err)
		}
		if n := col.Snapshot().LP.WarmStarts; n != 1 {
			t.Fatalf("trial %d: compatible basis was not installed (%d warm starts)", trial, n)
		}
		if !approx(warm.Objective, cold.Objective) {
			t.Fatalf("trial %d: warm re-solve obj %v vs cold %v", trial, warm.Objective, cold.Objective)
		}
		if warm.Iterations > cold.Iterations {
			t.Errorf("trial %d: warm re-solve took %d iterations, cold %d", trial, warm.Iterations, cold.Iterations)
		}

		// Bound change: warm and cold solves of the modified LP must agree
		// on the objective, and the warm duals must still certify it.
		relaxRows(p, 0.25)
		coldMod, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: cold modified: %v", trial, err)
		}
		warmMod, err := p.SolveOpts(Options{StartBasis: basis})
		if err != nil {
			t.Fatalf("trial %d: warm modified: %v", trial, err)
		}
		if coldMod.Status != Optimal || warmMod.Status != Optimal {
			t.Fatalf("trial %d: modified statuses cold=%v warm=%v", trial, coldMod.Status, warmMod.Status)
		}
		if !approx(warmMod.Objective, coldMod.Objective) {
			t.Fatalf("trial %d: modified warm obj %v vs cold %v", trial, warmMod.Objective, coldMod.Objective)
		}
		checkFeasible(t, p, warmMod.X, trial)
		if dual := dualObjective(t, trial, p, warmMod); !approx(warmMod.Objective, dual) {
			t.Fatalf("trial %d: warm solve violates strong duality: primal %v, dual %v", trial, warmMod.Objective, dual)
		}
		checkComplementarySlackness(t, trial, p, warmMod)
	}
}

// TestWarmStartRejectedSurfaced: an incompatible start basis must be
// reported — a WarmStartRejected increment in the collector, and no
// WarmStarts one — instead of silently falling back.
func TestWarmStartRejectedSurfaced(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p, _ := randomFeasibleLP(rng, 4, 6)
	other, _ := randomFeasibleLP(rng, 3, 5) // different shape
	otherSol, err := other.Solve()
	if err != nil {
		t.Fatal(err)
	}

	col := obs.New()
	ctx := obs.With(context.Background(), col)
	sol, err := p.SolveCtx(ctx, Options{StartBasis: otherSol.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	snap := col.Snapshot()
	if snap.LP.WarmStartRejected != 1 {
		t.Errorf("WarmStartRejected = %d, want 1", snap.LP.WarmStartRejected)
	}
	if snap.LP.WarmStarts != 0 {
		t.Errorf("WarmStarts = %d, want 0", snap.LP.WarmStarts)
	}

	// The compatible case increments the accepted counter instead.
	if _, err := p.SolveCtx(ctx, Options{StartBasis: sol.Basis()}); err != nil {
		t.Fatal(err)
	}
	snap = col.Snapshot()
	if snap.LP.WarmStarts != 1 || snap.LP.WarmStartRejected != 1 {
		t.Errorf("counters = %d accepted / %d rejected, want 1/1", snap.LP.WarmStarts, snap.LP.WarmStartRejected)
	}
}

// TestPropertyBatchBitIdenticalToDirect: the batch solver's contract is
// bit-identity with a fresh Problem solve — same pivots, same primal and
// dual values — across repeated variant solves on a reused workspace.
func TestPropertyBatchBitIdenticalToDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 80; trial++ {
		m := 1 + rng.Intn(10)
		n := 2 + rng.Intn(10)
		p, _ := randomFeasibleLP(rng, m, n)
		bp, err := p.Compile()
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		solver := bp.NewSolver()
		// Three variants of increasing relaxation, interleaved with direct
		// solves of an identically modified fresh problem.
		for round := 0; round < 3; round++ {
			direct, err := p.Solve()
			if err != nil {
				t.Fatalf("trial %d round %d: direct: %v", trial, round, err)
			}
			batch, err := solver.Solve(Variant{}, Options{})
			if err != nil {
				t.Fatalf("trial %d round %d: batch: %v", trial, round, err)
			}
			assertBitIdentical(t, trial, round, direct, batch)

			// The same bounds supplied through the Variant instead of the
			// base problem must also match exactly.
			v := Variant{
				RowLB: append([]float64(nil), p.rowLB...),
				RowUB: append([]float64(nil), p.rowUB...),
				ColLB: append([]float64(nil), p.colLB...),
				ColUB: append([]float64(nil), p.colUB...),
				Cost:  append([]float64(nil), p.obj...),
			}
			batchV, err := solver.Solve(v, Options{})
			if err != nil {
				t.Fatalf("trial %d round %d: batch variant: %v", trial, round, err)
			}
			assertBitIdentical(t, trial, round, direct, batchV)

			relaxRows(p, 0.2)
		}
	}
}

func assertBitIdentical(t *testing.T, trial, round int, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status || a.Objective != b.Objective || a.Iterations != b.Iterations {
		t.Fatalf("trial %d round %d: direct (%v, %v, %d iters) vs batch (%v, %v, %d iters)",
			trial, round, a.Status, a.Objective, a.Iterations, b.Status, b.Objective, b.Iterations)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Fatalf("trial %d round %d: X[%d] direct %v vs batch %v", trial, round, j, a.X[j], b.X[j])
		}
	}
	for i := range a.RowDual {
		if a.RowDual[i] != b.RowDual[i] {
			t.Fatalf("trial %d round %d: RowDual[%d] direct %v vs batch %v", trial, round, i, a.RowDual[i], b.RowDual[i])
		}
	}
}

// TestBatchVariantValidation: malformed variants fail cleanly without
// corrupting the reusable workspace.
func TestBatchVariantValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	p, _ := randomFeasibleLP(rng, 4, 6)
	bp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	solver := bp.NewSolver()
	if _, err := solver.Solve(Variant{RowUB: make([]float64, 1)}, Options{}); err == nil {
		t.Error("wrong-length RowUB accepted")
	}
	bad := append([]float64(nil), p.colLB...)
	bad[0] = p.colUB[0] + 1 // lb > ub
	if _, err := solver.Solve(Variant{ColLB: bad}, Options{}); err == nil {
		t.Error("inconsistent column bounds accepted")
	}
	// The workspace must still produce a correct solve afterwards.
	direct, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := solver.Solve(Variant{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, 0, 0, direct, got)
}

// TestBatchWarmCombined: the two mechanisms compose — a warm-started batch
// solve still reaches the cold objective.
func TestBatchWarmCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 40; trial++ {
		p, _ := randomFeasibleLP(rng, 2+rng.Intn(8), 3+rng.Intn(8))
		cold, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bp, err := p.Compile()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		solver := bp.NewSolver()
		relaxRows(p, 0.3)
		coldMod, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ctx, col := obsCtx()
		got, err := solver.SolveCtx(ctx, Variant{}, Options{StartBasis: cold.Basis()})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Status != Optimal || !approx(got.Objective, coldMod.Objective) {
			t.Fatalf("trial %d: combined solve %v obj %v, want %v", trial, got.Status, got.Objective, coldMod.Objective)
		}
		if col.Snapshot().LP.WarmStarts != 1 {
			t.Fatalf("trial %d: basis not installed", trial)
		}
	}
}
