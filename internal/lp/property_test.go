package lp

import (
	"math"
	"math/rand"
	"testing"
)

// propertyTrials is the size of the random-LP battery. Every instance is
// feasible by construction (a random interior point generates the row
// bounds) and bounded (finite column boxes), so Optimal is the only
// acceptable status and the full primal/dual optimality theory applies.
const propertyTrials = 200

// dualObjective recomputes the dual objective from the reported row duals
// and the reduced costs they price: Σ_i y_i·b_i + Σ_j d_j·l_j, where each
// multiplier pays the bound its sign says is binding (y_i > 0 ⇒ the ≥ side,
// y_i < 0 ⇒ the ≤ side; reduced costs likewise against the column box). By
// LP duality this must equal the primal objective at an optimal basis.
func dualObjective(t *testing.T, trial int, p *Problem, s *Solution) float64 {
	t.Helper()
	const dtol = 1e-7
	obj := 0.0
	rc := reducedCosts(p, s.RowDual)
	for i := 0; i < p.NumRows(); i++ {
		y := s.RowDual[i]
		if math.Abs(y) <= dtol {
			continue
		}
		b := p.rowUB[i]
		if y > 0 {
			b = p.rowLB[i]
		}
		if math.IsInf(b, 0) {
			t.Fatalf("trial %d: row %d dual %v prices an infinite bound", trial, i, y)
		}
		obj += y * b
	}
	for j := 0; j < p.NumCols(); j++ {
		d := rc[j]
		if math.Abs(d) <= dtol {
			continue
		}
		b := p.colUB[j]
		if d > 0 {
			b = p.colLB[j]
		}
		if math.IsInf(b, 0) {
			t.Fatalf("trial %d: col %d reduced cost %v prices an infinite bound", trial, j, d)
		}
		obj += d * b
	}
	return obj
}

// checkComplementarySlackness asserts that every nonzero multiplier has its
// constraint binding at the side the multiplier's sign selects, and every
// slack constraint has a (near-)zero multiplier's worth of freedom: y_i > 0
// ⇒ a_i·x = rowLB_i, y_i < 0 ⇒ a_i·x = rowUB_i, and the same for reduced
// costs against the column box.
func checkComplementarySlackness(t *testing.T, trial int, p *Problem, s *Solution) {
	t.Helper()
	const dtol = 1e-7
	const atol = 1e-6
	acts, rc := rowActivity(p, s.X), reducedCosts(p, s.RowDual)
	for i := 0; i < p.NumRows(); i++ {
		y, act := s.RowDual[i], acts[i]
		switch {
		case y > dtol:
			if math.Abs(act-p.rowLB[i]) > atol*(1+math.Abs(p.rowLB[i])) {
				t.Fatalf("trial %d: row %d has dual %v but activity %v is off its lower bound %v",
					trial, i, y, act, p.rowLB[i])
			}
		case y < -dtol:
			if math.Abs(act-p.rowUB[i]) > atol*(1+math.Abs(p.rowUB[i])) {
				t.Fatalf("trial %d: row %d has dual %v but activity %v is off its upper bound %v",
					trial, i, y, act, p.rowUB[i])
			}
		}
	}
	for j := 0; j < p.NumCols(); j++ {
		d, x := rc[j], s.X[j]
		// A fixed column (lb == ub) is trivially at both bounds.
		switch {
		case d > dtol:
			if math.Abs(x-p.colLB[j]) > atol*(1+math.Abs(p.colLB[j])) {
				t.Fatalf("trial %d: col %d has reduced cost %v but x=%v is off its lower bound %v",
					trial, j, d, x, p.colLB[j])
			}
		case d < -dtol:
			if math.Abs(x-p.colUB[j]) > atol*(1+math.Abs(p.colUB[j])) {
				t.Fatalf("trial %d: col %d has reduced cost %v but x=%v is off its upper bound %v",
					trial, j, d, x, p.colUB[j])
			}
		}
	}
}

// TestPropertyStrongDuality: on the full battery, the primal objective, the
// dual objective recomputed from the reported multipliers, and the optimum
// of the LP dual (dualLP) all agree within 1e-6, the solution is feasible,
// and complementary slackness holds at the final basis.
func TestPropertyStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < propertyTrials; trial++ {
		m := 1 + rng.Intn(10)
		n := 2 + rng.Intn(10)
		p, _ := randomFeasibleLP(rng, m, n)
		s, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: feasible bounded LP finished %v", trial, s.Status)
		}
		checkFeasible(t, p, s.X, trial)
		if dual := dualObjective(t, trial, p, s); !approx(s.Objective, dual) {
			t.Fatalf("trial %d: strong duality violated: primal %v, dual %v (gap %v)",
				trial, s.Objective, dual, s.Objective-dual)
		}
		checkComplementarySlackness(t, trial, p, s)

		d := solveDualized(t, p)
		if d.Status != Optimal {
			t.Fatalf("trial %d: dualized path finished %v", trial, d.Status)
		}
		if !approx(s.Objective, d.Objective) {
			t.Fatalf("trial %d: primal obj %v vs dualized %v", trial, s.Objective, d.Objective)
		}
	}
}

// TestPropertyBlandAgreesWithDefault: Bland's rule takes a different pivot
// path but must land on the same optimal value as the default (Dantzig +
// perturbation) pricing, and its duals must satisfy the same optimality
// conditions.
func TestPropertyBlandAgreesWithDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < propertyTrials; trial++ {
		m := 1 + rng.Intn(8)
		n := 2 + rng.Intn(8)
		p, _ := randomFeasibleLP(rng, m, n)
		def, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: default: %v", trial, err)
		}
		bl, err := p.SolveOpts(Options{Bland: true})
		if err != nil {
			t.Fatalf("trial %d: bland: %v", trial, err)
		}
		if def.Status != Optimal || bl.Status != Optimal {
			t.Fatalf("trial %d: statuses default=%v bland=%v", trial, def.Status, bl.Status)
		}
		if !approx(def.Objective, bl.Objective) {
			t.Fatalf("trial %d: default obj %v vs Bland obj %v", trial, def.Objective, bl.Objective)
		}
		checkFeasible(t, p, bl.X, trial)
		if dual := dualObjective(t, trial, p, bl); !approx(bl.Objective, dual) {
			t.Fatalf("trial %d: Bland solve violates strong duality: primal %v, dual %v",
				trial, bl.Objective, dual)
		}
		checkComplementarySlackness(t, trial, p, bl)
	}
}

// TestPropertyObjectiveMatchesCostDotX: the reported objective must equal
// c·X exactly as extracted (guards against perturbation residue leaking
// into the reported value).
func TestPropertyObjectiveMatchesCostDotX(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		p, _ := randomFeasibleLP(rng, 2+rng.Intn(6), 2+rng.Intn(6))
		s, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dot := 0.0
		for j := 0; j < p.NumCols(); j++ {
			dot += p.Cost(j) * s.X[j]
		}
		if math.Abs(dot-s.Objective) > 1e-9*(1+math.Abs(dot)) {
			t.Fatalf("trial %d: objective %v but c·x = %v", trial, s.Objective, dot)
		}
	}
}
