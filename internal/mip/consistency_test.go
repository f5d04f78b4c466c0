package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"flexile/internal/lp"
	"flexile/internal/obs"
)

const consTol = 1e-6

// randomBinaryMIP builds a feasible-by-construction binary MIP: nBin binary
// columns, nCont continuous columns in [0,2], mixed-sign costs, and m
// knapsack-style ≤ rows with nonnegative coefficients and positive rhs (so
// the all-zeros point is always integer feasible and the problem is
// bounded). Returns the problem plus the row entries/rhs for independent
// feasibility checking.
func randomBinaryMIP(rng *rand.Rand, nBin, nCont, m int) (*Problem, [][]lp.Entry, []float64) {
	p := lp.NewProblem()
	var bins []int
	for j := 0; j < nBin; j++ {
		bins = append(bins, p.AddCol("b", 0, 1, -3+6*rng.Float64()))
	}
	for j := 0; j < nCont; j++ {
		p.AddCol("x", 0, 2, -3+6*rng.Float64())
	}
	n := p.NumCols()
	rows := make([][]lp.Entry, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		var ents []lp.Entry
		total := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				coef := 0.1 + 1.9*rng.Float64()
				ents = append(ents, lp.Entry{Col: j, Coef: coef})
				ub := 1.0
				if j >= nBin {
					ub = 2.0
				}
				total += coef * ub
			}
		}
		if len(ents) == 0 {
			ents = append(ents, lp.Entry{Col: rng.Intn(n), Coef: 1})
			total = 2
		}
		rhs[i] = total * (0.3 + 0.5*rng.Float64())
		p.AddLE("r", rhs[i], ents...)
		rows[i] = ents
	}
	return &Problem{LP: p, Binary: bins}, rows, rhs
}

func checkMIPSolution(t *testing.T, trial int, mp *Problem, rows [][]lp.Entry, rhs []float64, sol *Solution) {
	t.Helper()
	if sol.Status != Optimal && sol.Status != Feasible {
		t.Fatalf("trial %d: feasible MIP finished %v", trial, sol.Status)
	}
	for _, j := range mp.Binary {
		if v := sol.X[j]; math.Abs(v-math.Round(v)) > consTol {
			t.Fatalf("trial %d: binary col %d = %v is fractional", trial, j, v)
		}
	}
	for j := 0; j < mp.LP.NumCols(); j++ {
		if sol.X[j] < mp.LP.ColLB(j)-consTol || sol.X[j] > mp.LP.ColUB(j)+consTol {
			t.Fatalf("trial %d: col %d = %v outside [%v,%v]", trial, j, sol.X[j], mp.LP.ColLB(j), mp.LP.ColUB(j))
		}
	}
	for i, ents := range rows {
		act := 0.0
		for _, e := range ents {
			act += e.Coef * sol.X[e.Col]
		}
		if act > rhs[i]+consTol {
			t.Fatalf("trial %d: row %d activity %v exceeds rhs %v", trial, i, act, rhs[i])
		}
	}
	if sol.Bound > sol.Objective+consTol {
		t.Fatalf("trial %d: proven bound %v above incumbent %v", trial, sol.Bound, sol.Objective)
	}
}

// TestIncumbentRespectsRelaxationBound: on random feasible binary MIPs the
// integer incumbent can never beat the LP relaxation, and the solver's
// proven bound must be at least as strong as the root relaxation.
func TestIncumbentRespectsRelaxationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		nBin := 3 + rng.Intn(12)
		nCont := rng.Intn(4)
		m := 2 + rng.Intn(5)
		mp, rows, rhs := randomBinaryMIP(rng, nBin, nCont, m)

		relax, err := mp.LP.Solve()
		if err != nil {
			t.Fatalf("trial %d: relaxation: %v", trial, err)
		}
		if relax.Status != lp.Optimal {
			t.Fatalf("trial %d: relaxation finished %v", trial, relax.Status)
		}

		sol, err := Solve(mp, Options{})
		if err != nil {
			t.Fatalf("trial %d: mip: %v", trial, err)
		}
		checkMIPSolution(t, trial, mp, rows, rhs, sol)
		if sol.Objective < relax.Objective-consTol {
			t.Fatalf("trial %d: incumbent %v beats LP relaxation %v", trial, sol.Objective, relax.Objective)
		}
		if sol.Bound < relax.Objective-consTol {
			t.Fatalf("trial %d: proven bound %v weaker than root relaxation %v", trial, sol.Bound, relax.Objective)
		}
	}
}

// bruteForce enumerates every 0/1 assignment of mp's binaries (≤ 8 of
// them), LP-solving the rest with the binaries fixed: it returns the exact
// optimum, the first assignment that reaches it, and the feasible
// assignments in mask order. mp's bounds are restored on return.
func bruteForce(t *testing.T, trial int, mp *Problem) (float64, []float64, [][]float64) {
	t.Helper()
	best := math.Inf(1)
	var bestBin []float64
	var feasible [][]float64
	for mask := 0; mask < 1<<len(mp.Binary); mask++ {
		bin := make([]float64, len(mp.Binary))
		for k, j := range mp.Binary {
			bin[k] = float64((mask >> k) & 1)
			mp.LP.SetColBounds(j, bin[k], bin[k])
		}
		s, err := mp.LP.Solve()
		if err != nil {
			t.Fatalf("trial %d mask %d: %v", trial, mask, err)
		}
		if s.Status == lp.Optimal {
			feasible = append(feasible, bin)
			if s.Objective < best {
				best, bestBin = s.Objective, bin
			}
		}
	}
	for _, j := range mp.Binary {
		mp.LP.SetColBounds(j, 0, 1)
	}
	if math.IsInf(best, 1) {
		t.Fatalf("trial %d: brute force found no feasible assignment (all-zeros should be feasible)", trial)
	}
	return best, bestBin, feasible
}

// TestBranchAndBoundMatchesBruteForce: with ≤8 binaries, enumerating every
// 0/1 assignment (fix the binaries, LP-solve the rest) gives the exact
// optimum; the branch-and-bound solver must find it when it claims Optimal.
func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		nBin := 2 + rng.Intn(7)
		nCont := rng.Intn(3)
		m := 2 + rng.Intn(4)
		mp, rows, rhs := randomBinaryMIP(rng, nBin, nCont, m)
		best, _, _ := bruteForce(t, trial, mp)

		sol, err := Solve(mp, Options{})
		if err != nil {
			t.Fatalf("trial %d: mip: %v", trial, err)
		}
		checkMIPSolution(t, trial, mp, rows, rhs, sol)
		if sol.Status == Optimal && math.Abs(sol.Objective-best) > consTol*(1+math.Abs(best)) {
			t.Fatalf("trial %d: branch-and-bound optimum %v, brute force %v", trial, sol.Objective, best)
		}
		if sol.Objective < best-consTol {
			t.Fatalf("trial %d: incumbent %v beats the true optimum %v", trial, sol.Objective, best)
		}
	}
}

// TestWarmStartNeverHurts: seeding the solver with a feasible warm incumbent
// must not change the optimum it reports, and the root relaxation, started
// from the incumbent's basis with the binaries freed, needs no phase 1 and
// reaches the relaxation's optimum. The warm starts are all-zeros, the
// brute-force optimum and the feasible assignment with the most ones, so
// binaries fixed at 1 are re-seated on their upper bound.
func TestWarmStartNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ones := 0
	for trial := 0; trial < 25; trial++ {
		mp, rows, rhs := randomBinaryMIP(rng, 3+rng.Intn(6), rng.Intn(3), 2+rng.Intn(3))
		cold, err := Solve(mp, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		relax, err := mp.LP.Solve()
		if err != nil || relax.Status != lp.Optimal {
			t.Fatalf("trial %d: relaxation %v, %v", trial, relax, err)
		}
		_, optimum, feasible := bruteForce(t, trial, mp)
		most := feasible[0]
		for _, bin := range feasible {
			if sum(bin) > sum(most) {
				most = bin
			}
		}
		for _, warmBin := range [][]float64{feasible[0], optimum, most} { // feasible[0] is all-zeros
			ones += int(sum(warmBin))
			warm, err := Solve(mp, Options{WarmBinary: warmBin})
			if err != nil {
				t.Fatalf("trial %d: warm: %v", trial, err)
			}
			checkMIPSolution(t, trial, mp, rows, rhs, warm)
			if cold.Status == Optimal && warm.Status == Optimal &&
				math.Abs(cold.Objective-warm.Objective) > consTol*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d: cold optimum %v, warm %v optimum %v", trial, cold.Objective, warmBin, warm.Objective)
			}

			// One node: the incumbent's own cold solve, which starts at a
			// feasible logical basis (≤ rows with nonnegative entries), and
			// the warm root, unless the incumbent closes the root at its box
			// bound first. Every phase-1 pivot would be the root's.
			col := obs.New()
			root, err := SolveCtx(obs.With(context.Background(), col), mp, Options{WarmBinary: warmBin, MaxNodes: 1})
			if err != nil {
				t.Fatalf("trial %d: root: %v", trial, err)
			}
			if m := col.Snapshot().LP; m.WarmStarts != m.Solves-1 || m.Phase1Pivots != 0 {
				t.Fatalf("trial %d: warm %v: %d solves, %d warm, %d phase-1 pivots; want every solve but the incumbent's warm, and 0",
					trial, warmBin, m.Solves, m.WarmStarts, m.Phase1Pivots)
			}
			if math.Abs(root.Bound-relax.Objective) > consTol*(1+math.Abs(relax.Objective)) {
				t.Fatalf("trial %d: warm %v: root bound %v, relaxation optimum %v", trial, warmBin, root.Bound, relax.Objective)
			}
		}
	}
	if ones == 0 {
		t.Fatal("no warm start fixed a binary at 1")
	}
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
