package mip

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flexile/internal/lp"
	"flexile/internal/obs"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

// knapsack: max Σ v_i x_i s.t. Σ w_i x_i ≤ C, x binary.
func knapsack(t *testing.T, values, weights []float64, cap float64) (*Solution, []int) {
	t.Helper()
	p := lp.NewProblem()
	var bins []int
	var es []lp.Entry
	for i := range values {
		j := p.AddCol("x", 0, 1, -values[i])
		bins = append(bins, j)
		es = append(es, lp.Entry{Col: j, Coef: weights[i]})
	}
	p.AddLE("cap", cap, es...)
	s, err := Solve(&Problem{LP: p, Binary: bins}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, bins
}

func TestKnapsack(t *testing.T) {
	// Classic: values {60,100,120}, weights {10,20,30}, cap 50 → 220.
	s, _ := knapsack(t, []float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	if s.Status != Optimal || !approx(s.Objective, -220) {
		t.Fatalf("status=%v obj=%v want -220", s.Status, s.Objective)
	}
}

func TestKnapsackAllFit(t *testing.T) {
	s, _ := knapsack(t, []float64{1, 2, 3}, []float64{1, 1, 1}, 10)
	if s.Status != Optimal || !approx(s.Objective, -6) {
		t.Fatalf("obj=%v want -6", s.Objective)
	}
}

func TestSetCover(t *testing.T) {
	// Universe {1..4}; sets {1,2}, {2,3}, {3,4}, {1,4}, costs 1 each.
	// Optimal cover = 2 sets.
	sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	p := lp.NewProblem()
	var bins []int
	for range sets {
		bins = append(bins, p.AddCol("s", 0, 1, 1))
	}
	for e := 0; e < 4; e++ {
		var es []lp.Entry
		for si, set := range sets {
			for _, el := range set {
				if el == e {
					es = append(es, lp.Entry{Col: bins[si], Coef: 1})
				}
			}
		}
		p.AddGE("cover", 1, es...)
	}
	s, err := Solve(&Problem{LP: p, Binary: bins}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 2) {
		t.Fatalf("status=%v obj=%v want 2", s.Status, s.Objective)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddCol("x", 0, 1, 1)
	y := p.AddCol("y", 0, 1, 1)
	p.AddGE("r", 3, lp.Entry{Col: x, Coef: 1}, lp.Entry{Col: y, Coef: 1})
	s, err := Solve(&Problem{LP: p, Binary: []int{x, y}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status=%v want infeasible", s.Status)
	}
}

// Fractional LP relaxation must be cut off by integrality: min x+y with
// x+y ≥ 1.5, binaries → optimal integer cost 2.
func TestIntegralityGap(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddCol("x", 0, 1, 1)
	y := p.AddCol("y", 0, 1, 1)
	p.AddGE("r", 1.5, lp.Entry{Col: x, Coef: 1}, lp.Entry{Col: y, Coef: 1})
	s, err := Solve(&Problem{LP: p, Binary: []int{x, y}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 2) {
		t.Fatalf("obj=%v want 2", s.Objective)
	}
}

// Mixed problem: continuous completion must be optimized for fixed binaries.
func TestMixedBinaryContinuous(t *testing.T) {
	// min 10·z + c  s.t. c ≥ 5 − 4·z, c ≥ 0, z binary.
	// z=0 → cost 5; z=1 → cost 10+1=11. Optimal z=0, obj 5.
	p := lp.NewProblem()
	z := p.AddCol("z", 0, 1, 10)
	c := p.AddCol("c", 0, lp.Inf, 1)
	p.AddGE("r", 5, lp.Entry{Col: c, Coef: 1}, lp.Entry{Col: z, Coef: 4})
	s, err := Solve(&Problem{LP: p, Binary: []int{z}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 5) {
		t.Fatalf("obj=%v want 5", s.Objective)
	}
	if s.X[z] > 0.5 {
		t.Fatalf("z=%v want 0", s.X[z])
	}
}

func TestWarmStartAndNodeLimit(t *testing.T) {
	// With MaxNodes=1 the warm start is the only incumbent source.
	values := []float64{10, 13, 7, 8, 9, 4}
	weights := []float64{3, 4, 2, 3, 3, 1}
	p := lp.NewProblem()
	var bins []int
	var es []lp.Entry
	for i := range values {
		j := p.AddCol("x", 0, 1, -values[i])
		bins = append(bins, j)
		es = append(es, lp.Entry{Col: j, Coef: weights[i]})
	}
	p.AddLE("cap", 7, es...)
	warm := []float64{1, 1, 0, 0, 0, 0}
	s, err := Solve(&Problem{LP: p, Binary: bins}, Options{MaxNodes: 1, WarmBinary: warm})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Infeasible {
		t.Fatal("warm start should give an incumbent")
	}
	if s.Objective > -23+1e-9 {
		t.Fatalf("incumbent %v worse than warm start -23", s.Objective)
	}
}

func TestHeuristicIncumbent(t *testing.T) {
	called := false
	p := lp.NewProblem()
	x := p.AddCol("x", 0, 1, -3)
	y := p.AddCol("y", 0, 1, -2)
	p.AddLE("cap", 1.5, lp.Entry{Col: x, Coef: 1}, lp.Entry{Col: y, Coef: 1})
	h := func(frac []float64) []float64 {
		called = true
		return []float64{1, 0}
	}
	s, err := Solve(&Problem{LP: p, Binary: []int{x, y}}, Options{Heuristic: h})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("heuristic was not invoked")
	}
	if s.Status != Optimal || !approx(s.Objective, -3) {
		t.Fatalf("obj=%v want -3", s.Objective)
	}
}

// Random knapsacks cross-checked against exhaustive enumeration.
func TestRandomKnapsackExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = 1 + rng.Float64()*9
			weights[i] = 1 + rng.Float64()*9
		}
		cap := rng.Float64() * 5 * float64(n)
		// Exhaustive optimum.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			v, w := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += values[i]
					w += weights[i]
				}
			}
			if w <= cap+1e-12 && v > best {
				best = v
			}
		}
		s, _ := knapsack(t, values, weights, cap)
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		if !approx(-s.Objective, best) {
			t.Fatalf("trial %d: mip %v vs exhaustive %v", trial, -s.Objective, best)
		}
	}
}

func TestRoundGreedyCover(t *testing.T) {
	// Two groups over four columns; weights are probabilities.
	groups := [][]int{{0, 1}, {2, 3}}
	weights := []float64{0.6, 0.5, 0.9, 0.2}
	targets := []float64{0.9, 0.8}
	h := RoundGreedyCover(groups, weights, targets)
	out := h([]float64{0.9, 0.4, 0.2, 0.8})
	// Group 0: picks col0 (0.6) then col1 → covered 1.1 ≥ 0.9.
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("group 0 rounding: %v", out)
	}
	// Group 1: col3 has higher fractional (0.8) → picked first (0.2), then
	// col2 (0.9) → covered 1.1.
	if out[3] != 1 || out[2] != 1 {
		t.Fatalf("group 1 rounding: %v", out)
	}
}

// TestBoundsRestoredAfterSolve: the relaxations carry their bounds per
// solve, so the caller's column bounds are bit-identical after a solve that
// ends optimal, infeasible, or canceled mid-search (a heuristic cancels while
// binaries are fixed).
func TestBoundsRestoredAfterSolve(t *testing.T) {
	snapshot := func(p *lp.Problem) []uint64 {
		var out []uint64
		for j := 0; j < p.NumCols(); j++ {
			out = append(out, math.Float64bits(p.ColLB(j)), math.Float64bits(p.ColUB(j)))
		}
		return out
	}
	rng := rand.New(rand.NewSource(83))
	optimal, _, _ := randomBinaryMIP(rng, 8, 2, 4)
	infeasible := lp.NewProblem()
	b1 := infeasible.AddCol("b1", 0, 1, 1)
	b2 := infeasible.AddCol("b2", 0, 1, 1)
	infeasible.AddEQ("half", 1.5, lp.Entry{Col: b1, Coef: 1}, lp.Entry{Col: b2, Coef: 1})
	// A knapsack whose root relaxation is fractional, so the search branches.
	canceled := lp.NewProblem()
	var items []int
	var es []lp.Entry
	for i, v := range []float64{60, 100, 120} {
		j := canceled.AddCol("x", 0, 1, -v)
		items = append(items, j)
		es = append(es, lp.Entry{Col: j, Coef: float64(10 * (i + 1))})
	}
	canceled.AddLE("cap", 50, es...)

	for _, tc := range []struct {
		name    string
		mp      *Problem
		cancel  bool
		wantErr bool
	}{
		{"optimal", optimal, false, false},
		{"infeasible", &Problem{LP: infeasible, Binary: []int{b1, b2}}, false, false},
		{"canceled", &Problem{LP: canceled, Binary: items}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := snapshot(tc.mp.LP)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := Options{WarmBinary: make([]float64, len(tc.mp.Binary))}
			heurCalled := false
			if tc.cancel {
				opts.Heuristic = func(frac []float64) []float64 {
					heurCalled = true
					cancel()
					return make([]float64, len(frac))
				}
			}
			_, err := SolveCtx(ctx, tc.mp, opts)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if tc.cancel && !heurCalled {
				t.Fatal("the search never reached a branching node; the cancel path is untested")
			}
			if after := snapshot(tc.mp.LP); !reflect.DeepEqual(after, before) {
				t.Fatalf("caller's column bounds changed:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// TestBoxBoundClosesRoot: a master-shaped MIP (zero-cost binaries, one
// penalty column ≥ 0 carrying all the cost) whose warm incumbent reaches
// penalty 0 — the box bound Σ min(cⱼ·lbⱼ, cⱼ·ubⱼ) — is Optimal without
// exploring a node: the only LP solved is the warm start's completion.
//
// The box must come from the caller's bounds, not from the relaxation's
// bounds after the warm start fixed every binary: there it is the warm
// incumbent's own cost, and the root is pruned while a better assignment
// exists (TestWarmStartNeverHurts catches that).
func TestBoxBoundClosesRoot(t *testing.T) {
	p := lp.NewProblem()
	b1 := p.AddCol("b1", 0, 1, 0)
	b2 := p.AddCol("b2", 0, 1, 0)
	pen := p.AddCol("pen", 0, lp.Inf, 1)
	// pen ≥ 1 − b1 − 0.5·b2: covering with b1 costs nothing.
	p.AddGE("cover", 1, lp.Entry{Col: pen, Coef: 1}, lp.Entry{Col: b1, Coef: 1}, lp.Entry{Col: b2, Coef: 0.5})
	mp := &Problem{LP: p, Binary: []int{b1, b2}}
	if got := boxBound(p, []float64{0, 0, 0}, []float64{1, 1, lp.Inf}); got != 0 {
		t.Fatalf("boxBound = %v, want 0", got)
	}

	col := obs.New()
	sol, err := SolveCtx(obs.With(context.Background(), col), mp, Options{WarmBinary: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 0 || sol.Bound != sol.Objective || sol.Nodes != 0 {
		t.Fatalf("status %v objective %v bound %v nodes %d, want optimal 0 = bound with 0 nodes",
			sol.Status, sol.Objective, sol.Bound, sol.Nodes)
	}
	if sol.X[b1] != 1 || sol.X[b2] != 0 || sol.X[pen] != 0 {
		t.Fatalf("X = %v, want the warm incumbent [1 0 0]", sol.X)
	}
	m := col.Snapshot()
	if m.MIP.Nodes != 0 || m.MIP.PrunedNodes != 1 || m.LP.Solves != 1 {
		t.Fatalf("mip %+v, lp solves %d: want 0 nodes, the root pruned, and only the warm start's LP",
			m.MIP, m.LP.Solves)
	}

	// A warm incumbent above the box bound leaves the search as it was.
	above, err := Solve(mp, Options{WarmBinary: []float64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if above.Status != Optimal || !approx(above.Objective, 0) || above.Nodes == 0 {
		t.Fatalf("warm start at penalty 0.5: status %v objective %v nodes %d, want optimal 0 after ≥1 node",
			above.Status, above.Objective, above.Nodes)
	}
}

// TestBoxBoundUnbounded: a negative cost on a column with no upper bound
// makes the box −Inf, so the root is solved as before: min −x + 2b with
// x ≤ 1 + 3b and x ≥ 0 unbounded above; the warm b = 0 gives −1 and the
// root relaxation reaches the optimum −2 at b = 1.
func TestBoxBoundUnbounded(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddCol("x", 0, lp.Inf, -1)
	b := p.AddCol("b", 0, 1, 2)
	p.AddLE("r", 1, lp.Entry{Col: x, Coef: 1}, lp.Entry{Col: b, Coef: -3})
	if got := boxBound(p, []float64{0, 0}, []float64{lp.Inf, 1}); !math.IsInf(got, -1) {
		t.Fatalf("boxBound = %v, want -Inf", got)
	}
	sol, err := Solve(&Problem{LP: p, Binary: []int{b}}, Options{WarmBinary: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -2) || sol.Nodes != 1 {
		t.Fatalf("status %v objective %v nodes %d, want optimal -2 at the root", sol.Status, sol.Objective, sol.Nodes)
	}
}

// Property: the reported bound never exceeds the incumbent objective (for
// minimization) and equals it on proven-optimal solves.
func TestBoundSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(6)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = 1 + rng.Float64()*9
			weights[i] = 1 + rng.Float64()*9
		}
		p := lp.NewProblem()
		var bins []int
		var es []lp.Entry
		for i := range values {
			j := p.AddCol("x", 0, 1, -values[i])
			bins = append(bins, j)
			es = append(es, lp.Entry{Col: j, Coef: weights[i]})
		}
		p.AddLE("cap", rng.Float64()*4*float64(n), es...)
		s, err := Solve(&Problem{LP: p, Binary: bins}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Status == Infeasible {
			continue
		}
		if s.Bound > s.Objective+1e-6 {
			t.Fatalf("trial %d: bound %v above objective %v", trial, s.Bound, s.Objective)
		}
		if s.Status == Optimal && s.Bound < s.Objective-1e-4*(1+-s.Objective) {
			t.Fatalf("trial %d: optimal but bound %v < obj %v", trial, s.Bound, s.Objective)
		}
	}
}

// TestNodeWithoutPointIsNotBranched: a node LP that stops at its iteration
// limit before it has a primal point returns no X. The search must not
// branch on it, nor drop it: its inherited bound stays in Bound.
func TestNodeWithoutPointIsNotBranched(t *testing.T) {
	// A cold root: phase 1 of a vertex cover, with one pivot allowed. With
	// no warm incumbent, or one whose LP is infeasible (it leaves edge 1–2
	// uncovered), the root starts cold and stops without a point, and the
	// MIP finds nothing.
	cover := lp.NewProblem()
	var bins []int
	for k := 0; k < 3; k++ {
		bins = append(bins, cover.AddCol("x", 0, 1, float64(1+k)))
	}
	cover.AddGE("cover01", 1, lp.Entry{Col: bins[0], Coef: 1}, lp.Entry{Col: bins[1], Coef: 1})
	cover.AddGE("cover12", 1, lp.Entry{Col: bins[1], Coef: 1}, lp.Entry{Col: bins[2], Coef: 1})
	cover.AddGE("cover02", 1, lp.Entry{Col: bins[0], Coef: 1}, lp.Entry{Col: bins[2], Coef: 1})
	for _, warm := range [][]float64{nil, {1, 0, 0}} {
		s, err := Solve(&Problem{LP: cover, Binary: bins}, Options{maxIters: 1, WarmBinary: warm})
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Infeasible || s.X != nil || s.Nodes != 1 {
			t.Fatalf("warm %v: status %v, X %v after %d nodes, want infeasible with no X after 1", warm, s.Status, s.X, s.Nodes)
		}
	}

	// A child without a point: min −2x₀ − x₁ subject to 3x₀ + 3x₁ ≤ 4 and
	// x₀ + 3x₁ ≤ 3, warm from the integer optimum (1, 0), with two pivots
	// allowed. The root, started from the incumbent's basis, reaches its
	// optimum (1, 1/3) at −7/3; the child x₁ = 1 needs more pivots from the
	// root's basis and stops without a point. It keeps the root's bound, so
	// the MIP is Feasible at −2 with bound −7/3, not Optimal.
	knap := lp.NewProblem()
	x0, x1 := knap.AddCol("x0", 0, 1, -2), knap.AddCol("x1", 0, 1, -1)
	knap.AddLE("r0", 4, lp.Entry{Col: x0, Coef: 3}, lp.Entry{Col: x1, Coef: 3})
	knap.AddLE("r1", 3, lp.Entry{Col: x0, Coef: 1}, lp.Entry{Col: x1, Coef: 3})
	s, err := Solve(&Problem{LP: knap, Binary: []int{x0, x1}}, Options{maxIters: 2, WarmBinary: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Feasible || s.Objective != -2 || math.Abs(s.Bound+7.0/3) > 1e-12 || s.Nodes != 3 {
		t.Fatalf("warm incumbent: status %v objective %v bound %v after %d nodes, want feasible -2 bound -7/3 (the root's) after 3",
			s.Status, s.Objective, s.Bound, s.Nodes)
	}
}
