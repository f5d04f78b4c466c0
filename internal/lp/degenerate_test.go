package lp

import (
	"math"
	"math/rand"
	"testing"
)

// The degenerate-LP differential battery: the shapes on which carried
// reduced costs are most likely to go wrong — ties everywhere, rows that are
// (nearly) linear combinations of each other, magnitudes six decades apart,
// a single step that re-costs most of the basis — each run through the
// lockstep trio of kernel_test.go: every carried d checked against the dense
// from-scratch one, every answer matched by the every-iteration-refresh
// reference, and the gap across each refactorization held under carryTol.

// duplicateRowsLP repeats every row of a random feasible LP twice more, once
// verbatim and once scaled by −2.
func duplicateRowsLP(rng *rand.Rand) *Problem {
	p, _ := randomFeasibleLP(rng, 4+rng.Intn(6), 4+rng.Intn(6))
	for i, m := 0, p.NumRows(); i < m; i++ {
		p.AddRow("dup", p.rowLB[i], p.rowUB[i], p.rows[i]...)
		scaled := make([]Entry, len(p.rows[i]))
		for k, e := range p.rows[i] {
			scaled[k] = Entry{e.Col, -2 * e.Coef}
		}
		p.AddRow("dup-2x", -2*p.rowUB[i], -2*p.rowLB[i], scaled...)
	}
	return p
}

// nearParallelLP adds to every row of a random feasible LP a copy whose
// coefficients are off by a relative 1e-7, bounded around the activity of the
// generator's feasible point.
func nearParallelLP(rng *rand.Rand) *Problem {
	p, x0 := randomFeasibleLP(rng, 4+rng.Intn(6), 4+rng.Intn(6))
	for i, m := 0, p.NumRows(); i < m; i++ {
		tilted := make([]Entry, len(p.rows[i]))
		act := 0.0
		for k, e := range p.rows[i] {
			c := e.Coef * (1 + 1e-7*(2*rng.Float64()-1))
			tilted[k] = Entry{e.Col, c}
			act += c * x0[e.Col]
		}
		p.AddRow("tilt", act-rng.Float64(), act+rng.Float64(), tilted...)
	}
	return p
}

// allTiesLP is a covering LP in which every coefficient and every right-hand
// side is 1: whatever enters, every row it appears in blocks at the same step.
func allTiesLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	const n = 12
	var all []Entry
	for j := 0; j < n; j++ {
		all = append(all, Entry{p.AddCol("x", 0, 1, -1), 1})
	}
	for i := 0; i < 40; i++ {
		var es []Entry
		for _, e := range all {
			if rng.Intn(3) == 0 {
				es = append(es, e)
			}
		}
		if len(es) > 0 {
			p.AddGE("cover", 1, es...)
			p.AddLE("pack", 1, es...)
		}
	}
	p.AddLE("cap", 3, all...)
	return p
}

// longStepLP starts with every row violated and one column, z, whose increase
// repairs them all: the first phase-1 step crosses m−1 breakpoints before its
// slope turns, so all but one basic variable change cost at once.
func longStepLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	z := p.AddCol("z", 0, 100, 1)
	var x [5]int
	for k := range x {
		x[k] = p.AddCol("x", 0, 1, rng.Float64())
	}
	for i := 0; i < 40; i++ {
		p.AddGE("lift", 1+0.01*float64(i), Entry{z, 1}, Entry{x[i%len(x)], 0.1})
	}
	return p
}

func TestDegenerateLockstep(t *testing.T) {
	cases := []struct {
		name   string
		trials int
		build  func(*rand.Rand) *Problem
	}{
		{"duplicate-rows", 20, duplicateRowsLP},
		{"near-parallel", 20, nearParallelLP},
		{"capacities-1e6", 6, func(rng *rand.Rand) *Problem { return networkLP(rng, 8, 20, 6, 6) }},
		{"all-ties", 6, allTiesLP},
		{"long-step", 2, longStepLP},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			updates, carried, drift, recosted := 0, 0, 0.0, 0.0
			for trial := 0; trial < tc.trials; trial++ {
				seed := rng.Int63()
				for _, opts := range kernelModes(trial) {
					p := tc.build(rand.New(rand.NewSource(seed)))
					tr := newTrio(t, p)
					tr.solve(trial, 0, opts)
					// Tighten every row a little: the held basis goes infeasible
					// (or the LP does) and phase 1 restarts from it.
					relaxRows(p, -0.02)
					for i := range p.rows {
						if p.rowLB[i] > p.rowUB[i] {
							p.SetRowBounds(i, p.rowUB[i], p.rowUB[i])
						}
					}
					tr.resolve(trial, 1, opts)
					updates += tr.l.updates
					carried += tr.l.carried
					drift = math.Max(drift, tr.l.drift)
					recosted = math.Max(recosted, tr.l.recosted)
				}
			}
			t.Logf("%d reduced-cost updates, one re-costing up to %.0f%% of the basis, %d refactorizations carried across with gap ≤ %.2g (bound %g)",
				updates, 100*recosted, carried, drift, carryTol)
			if updates == 0 || (tc.name == "long-step" && recosted <= 0.5) {
				t.Fatalf("%d updates, at most %.0f%% of the basis re-costed at once: the case missed the path it is for", updates, 100*recosted)
			}
		})
	}
}
