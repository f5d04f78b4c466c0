package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"flexile/internal/obs"
)

// obsCtx returns a context carrying a fresh collector.
func obsCtx() (context.Context, *obs.Collector) {
	col := obs.New()
	return obs.With(context.Background(), col), col
}

// TestMetricsCountersOnBattery: solving the random battery under a
// collector, the LP counters must reconcile exactly — one Solves/Optimal
// per solve, the phase split summing to the pivot total, and wall-clock
// time recorded.
func TestMetricsCountersOnBattery(t *testing.T) {
	ctx, col := obsCtx()
	rng := rand.New(rand.NewSource(97))
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		p, _ := randomFeasibleLP(rng, 1+rng.Intn(6), 2+rng.Intn(6))
		sol, err := p.SolveCtx(ctx, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
	}
	m := col.Snapshot().LP
	if m.Solves != trials || m.Optimal != trials || m.Errors != 0 {
		t.Fatalf("counters: %+v, want %d solves, all optimal", m, trials)
	}
	if m.Pivots == 0 || m.Phase1Pivots+m.Phase2Pivots != m.Pivots {
		t.Fatalf("pivot split broken: %+v", m)
	}
	// An optimal solve certifies its perturbed and its polish phase-2 run on
	// freshly computed reduced costs.
	if m.PriceRefreshes < 2*trials {
		t.Fatalf("PriceRefreshes = %d over %d optimal solves, want at least two each", m.PriceRefreshes, trials)
	}
	if m.SolveNanos <= 0 {
		t.Fatalf("SolveNanos = %d, want > 0", m.SolveNanos)
	}
}

// TestMetricsBlandActivation: Options.Bland counts one activation per
// phase entered under the rule.
func TestMetricsBlandActivation(t *testing.T) {
	ctx, col := obsCtx()
	rng := rand.New(rand.NewSource(101))
	p, _ := randomFeasibleLP(rng, 4, 5)
	if _, err := p.SolveCtx(ctx, Options{Bland: true}); err != nil {
		t.Fatal(err)
	}
	if m := col.Snapshot().LP; m.BlandActivations == 0 {
		t.Fatalf("Bland solve recorded no activations: %+v", m)
	}
}

// TestMetricsStatusSplit: infeasible, unbounded and iteration-limited
// solves land in their own counters, not in Optimal or Errors.
func TestMetricsStatusSplit(t *testing.T) {
	ctx, col := obsCtx()

	inf := NewProblem()
	x := inf.AddCol("x", 0, 1, 1)
	inf.AddGE("lo", 2, Entry{Col: x, Coef: 1}) // x ≥ 2 against ub 1
	if sol, err := inf.SolveCtx(ctx, Options{}); err != nil || sol.Status != Infeasible {
		t.Fatalf("infeasible probe: sol=%+v err=%v", sol, err)
	}

	unb := NewProblem()
	unb.AddCol("x", 0, math.Inf(1), -1) // minimize -x, x unbounded above
	if sol, err := unb.SolveCtx(ctx, Options{}); err != nil || sol.Status != Unbounded {
		t.Fatalf("unbounded probe: sol=%+v err=%v", sol, err)
	}

	rng := rand.New(rand.NewSource(103))
	lim, _ := randomFeasibleLP(rng, 8, 8)
	sol, err := lim.SolveCtx(ctx, Options{MaxIters: 1})
	if err != nil || sol.Status != IterLimit {
		t.Fatalf("iteration-limited probe: sol=%+v err=%v", sol, err)
	}

	m := col.Snapshot().LP
	if m.Solves != 3 || m.Infeasible != 1 || m.Unbounded != 1 || m.IterLimit != 1 || m.Optimal != 0 || m.Errors != 0 {
		t.Fatalf("status split: %+v", m)
	}
}

// TestMetricsErrorPaths: both failure modes — a malformed problem
// rejected before the solve and a pre-canceled context aborting it —
// count as Solves with Errors.
func TestMetricsErrorPaths(t *testing.T) {
	ctx, col := obsCtx()

	bad := NewProblem()
	bad.AddCol("x", 0, 1, 1)
	bad.AddLE("r", 1, Entry{Col: 7, Coef: 1}) // column out of range
	if _, err := bad.SolveCtx(ctx, Options{}); err == nil {
		t.Fatal("malformed problem solved")
	}

	rng := rand.New(rand.NewSource(107))
	p, _ := randomFeasibleLP(rng, 3, 4)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.SolveCtx(canceled, Options{}); err == nil {
		t.Fatal("canceled solve succeeded")
	}

	m := col.Snapshot().LP
	if m.Solves != 2 || m.Errors != 2 {
		t.Fatalf("error accounting: %+v, want 2 solves, 2 errors", m)
	}
}

// TestMetricsRefactorizations: forcing a refactorization every pivot on a
// problem needing several pivots must record rebuilds.
func TestMetricsRefactorizations(t *testing.T) {
	ctx, col := obsCtx()
	rng := rand.New(rand.NewSource(109))
	p, _ := randomFeasibleLP(rng, 6, 8)
	if _, err := p.SolveCtx(ctx, Options{RefactorEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if m := col.Snapshot().LP; m.Refactorizations == 0 {
		t.Fatalf("RefactorEvery=1 solve recorded no refactorizations: %+v", m)
	}
}
