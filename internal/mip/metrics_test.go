package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"flexile/internal/lp"
	"flexile/internal/obs"
)

// TestMIPMetricsCounters: a collector on the context receives one Solves
// per SolveCtx with node, incumbent and heuristic accounting, and the
// inner LP relaxation solves report through the same context.
func TestMIPMetricsCounters(t *testing.T) {
	col := obs.New()
	ctx := obs.With(context.Background(), col)
	rng := rand.New(rand.NewSource(71))
	mp, _, _ := randomBinaryMIP(rng, 8, 2, 4)

	heurCalled := false
	sol, err := SolveCtx(ctx, mp, Options{
		Heuristic: func(frac []float64) []float64 {
			heurCalled = true
			out := make([]float64, len(frac))
			for i, v := range frac {
				out[i] = math.Round(v)
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal && sol.Status != Feasible {
		t.Fatalf("status %v", sol.Status)
	}
	m := col.Snapshot()
	if m.MIP.Solves != 1 || m.MIP.SolveNanos <= 0 {
		t.Fatalf("MIP solve accounting: %+v", m.MIP)
	}
	if m.MIP.Nodes != int64(sol.Nodes) {
		t.Fatalf("metrics nodes %d, solution says %d", m.MIP.Nodes, sol.Nodes)
	}
	if m.MIP.IncumbentUpdates == 0 {
		t.Fatalf("optimal solve recorded no incumbent updates: %+v", m.MIP)
	}
	if heurCalled && m.MIP.HeuristicCalls == 0 {
		t.Fatalf("heuristic ran but was not counted: %+v", m.MIP)
	}
	if m.LP.Solves == 0 {
		t.Fatalf("relaxation solves did not report through the context: %+v", m.LP)
	}
}

// TestMIPNilContextAndWarmStartValidation: a nil ctx is
// context.Background(), and a wrong-length warm start is rejected.
func TestMIPNilContextAndWarmStartValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	mp, _, _ := randomBinaryMIP(rng, 4, 0, 2)
	if _, err := SolveCtx(nil, mp, Options{}); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("nil ctx solve: %v", err)
	}
	if _, err := Solve(mp, Options{WarmBinary: []float64{1}}); err == nil {
		t.Fatal("wrong-length warm start accepted")
	}
}

// TestMIPCanceledContext: cancellation aborts the search with the context
// error, and the collector still sees the aborted solve.
func TestMIPCanceledContext(t *testing.T) {
	col := obs.New()
	ctx, cancel := context.WithCancel(obs.With(context.Background(), col))
	cancel()
	rng := rand.New(rand.NewSource(79))
	mp, _, _ := randomBinaryMIP(rng, 4, 0, 2)
	if _, err := SolveCtx(ctx, mp, Options{}); err == nil {
		t.Fatal("canceled solve succeeded")
	}
	if m := col.Snapshot().MIP; m.Solves != 1 {
		t.Fatalf("aborted solve not flushed: %+v", m)
	}
}

// TestMIPUnboundedRoot: an unbounded relaxation at the root reports
// Unbounded.
func TestMIPUnboundedRoot(t *testing.T) {
	p := lp.NewProblem()
	b := p.AddCol("b", 0, 1, 1)
	p.AddCol("x", 0, math.Inf(1), -1)
	sol, err := Solve(&Problem{LP: p, Binary: []int{b}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

// TestMIPIntegerInfeasible: an LP-feasible problem with no integer point
// (b1 + b2 = 1.5) explores both branches and reports Infeasible.
func TestMIPIntegerInfeasible(t *testing.T) {
	p := lp.NewProblem()
	b1 := p.AddCol("b1", 0, 1, 1)
	b2 := p.AddCol("b2", 0, 1, 1)
	p.AddEQ("half", 1.5, lp.Entry{Col: b1, Coef: 1}, lp.Entry{Col: b2, Coef: 1})
	sol, err := Solve(&Problem{LP: p, Binary: []int{b1, b2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if sol.Nodes == 0 {
		t.Fatal("no nodes explored before proving infeasibility")
	}
}

// TestMIPNodeLimitIsNotInfeasible: min −x₁−x₂ s.t. 2x₁+2x₂ ≤ 3, x binary,
// has integer points, but its root relaxation is fractional. With one node
// and no heuristic or warm start, the search stops with open nodes and no
// incumbent: that is NoIncumbent, not a proof of infeasibility.
func TestMIPNodeLimitIsNotInfeasible(t *testing.T) {
	p := lp.NewProblem()
	x1 := p.AddCol("x1", 0, 1, -1)
	x2 := p.AddCol("x2", 0, 1, -1)
	p.AddLE("cap", 3, lp.Entry{Col: x1, Coef: 2}, lp.Entry{Col: x2, Coef: 2})
	sol, err := Solve(&Problem{LP: p, Binary: []int{x1, x2}}, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != NoIncumbent || sol.X != nil {
		t.Fatalf("status %v (x %v) after a one-node search with a fractional root, want no incumbent", sol.Status, sol.X)
	}
	if sol.Nodes != 1 {
		t.Fatalf("%d nodes explored, want 1", sol.Nodes)
	}
}

// TestMIPStatusStrings pins the Status stringer.
func TestMIPStatusStrings(t *testing.T) {
	for want, s := range map[string]Status{
		"optimal": Optimal, "feasible": Feasible,
		"infeasible": Infeasible, "unbounded": Unbounded,
		"no incumbent": NoIncumbent,
	} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if got := Status(99).String(); got != "status(99)" {
		t.Fatalf("unknown status renders %q", got)
	}
}
