package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The lockstep kernel battery. Two claims are checked on whole solves driven
// one step at a time from here — refresh or update of the reduced costs,
// price, ftran, ratio test, pivot, with refactorizations where run() would
// place them.
//
// The simplex walks its basis inverse through an exact nonzero bitmap, and
// the claim is that this changes no value anywhere (every skipped operation
// adds or subtracts an exact zero). The three functions below are the dense
// loops the bitmap kernels replaced, kept verbatim as the reference: after
// every refresh the production y must equal the reference y, and after every
// step the production binv must equal a shadow inverse that only the dense
// reference ever advanced (float ==, so a +0 and a -0 agree) and the bitmap
// must be exact.
//
// The simplex prices from reduced costs it carries from pivot to pivot, and
// the claim is that they stay the reduced costs: after every update d must
// agree with cc − y·F computed from scratch by the dense reference to
// carryTol·(1+|d|), with the phase-1 costs equal and the dy scratch back at zero;
// across a refactorization (which rebuilds the inverse the carried values
// came through) likewise; and at every verdict — optimal, infeasible,
// unbounded — bit for bit, because a verdict is only ever reached on values a
// refresh has just computed. Every stepped solve is also matched, status and
// objective, by a reference twin that refreshes on every iteration.

// refComputeY is the dense computeY: y = cc_B^T · B⁻¹ over every entry of
// binv.
func refComputeY(s *simplex, binv, cc, y []float64) {
	m := s.m
	for k := 0; k < m; k++ {
		y[k] = 0
	}
	for i := 0; i < m; i++ {
		cb := cc[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := binv[i*m : i*m+m]
		for k := 0; k < m; k++ {
			y[k] += cb * row[k]
		}
	}
}

// refPivotUpdate is the dense O(m²) inverse update for a pivot on position r
// with ftran column w.
func refPivotUpdate(binv []float64, m, r int, w []float64) {
	brow := binv[r*m : r*m+m]
	inv := 1 / w[r]
	for k := 0; k < m; k++ {
		brow[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		row := binv[i*m : i*m+m]
		for k := 0; k < m; k++ {
			row[k] -= f * brow[k]
		}
	}
}

// refGaussJordan is the dense refactorization: the inverse of the current
// basis matrix by Gauss-Jordan with partial pivoting over two fresh m×m
// matrices.
func refGaussJordan(s *simplex) ([]float64, error) {
	m := s.m
	a := make([]float64, m*m)
	for pos, v := range s.basis {
		if v >= s.n {
			a[(v-s.n)*m+pos] = -1
		} else {
			for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
				a[int(s.colIdx[k])*m+pos] = s.colVal[k]
			}
		}
	}
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for c := 0; c < m; c++ {
		p := c
		best := math.Abs(a[c*m+c])
		for i := c + 1; i < m; i++ {
			if v := math.Abs(a[i*m+c]); v > best {
				best, p = v, i
			}
		}
		if best < 1e-12 {
			return nil, ErrSingularBasis
		}
		if p != c {
			swapRows(a, m, p, c)
			swapRows(inv, m, p, c)
		}
		pv := a[c*m+c]
		invPv := 1 / pv
		for k := 0; k < m; k++ {
			a[c*m+k] *= invPv
			inv[c*m+k] *= invPv
		}
		for i := 0; i < m; i++ {
			if i == c {
				continue
			}
			f := a[i*m+c]
			if f == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				a[i*m+k] -= f * a[c*m+k]
				inv[i*m+k] -= f * inv[c*m+k]
			}
		}
	}
	return inv, nil
}

// carryTol bounds, relative to 1+|d|, how far a carried reduced cost may sit
// from the one computed from scratch — through the same inverse after an
// update, through the rebuilt one across a refactorization (measured: under
// 2e-13 on every LP of the batteries).
const carryTol = 1e-9

// lockstep pairs a production simplex with the shadow inverse and drives it.
type lockstep struct {
	t      *testing.T
	s      *simplex
	shadow []float64
	cc, d  []float64 // scratchD's result
	y      []float64
	steps  int
	// everyIter makes the driver refresh the reduced costs on every iteration:
	// the reference twin. No production switch does that.
	everyIter bool
	// What the drive has seen, for the callers' coverage assertions.
	updates, verdicts, carried int     // carried: refactorizations that d was carried across
	drift                      float64 // largest relative gap seen across one
	recosted                   float64 // largest share of the basis one phase-1 step re-costed
}

// check requires binv == shadow entry for entry and the bitmap exact.
func (l *lockstep) check(where string) {
	l.t.Helper()
	s := l.s
	l.steps++
	for i := 0; i < s.m; i++ {
		for k := 0; k < s.m; k++ {
			got := s.binv[i*s.m+k]
			if want := l.shadow[i*s.m+k]; got != want {
				l.t.Fatalf("%s (step %d): binv[%d,%d] = %v, dense reference %v", where, l.steps, i, k, got, want)
			}
			if bit := s.nz[i*s.nw+k>>6]>>(k&63)&1 == 1; bit != (got != 0) {
				l.t.Fatalf("%s (step %d): binv[%d,%d] = %v but its nonzero bit is %v", where, l.steps, i, k, got, bit)
			}
		}
	}
}

// resync rebuilds the shadow with the dense reference for the basis the
// simplex now has (after production reset it or installed one) and checks.
func (l *lockstep) resync(where string) {
	l.t.Helper()
	ref, err := refGaussJordan(l.s)
	if err != nil {
		l.t.Fatalf("%s: reference refactorization: %v", where, err)
	}
	l.shadow = ref
	l.check(where)
}

// scratchCost computes the phase's cost vector from nothing but the basis and
// the basic values, into l.cc.
func (l *lockstep) scratchCost(phase int) []float64 {
	s := l.s
	if len(l.cc) != s.n+s.m {
		l.cc = make([]float64, s.n+s.m)
	}
	copy(l.cc, s.cost)
	if phase == 1 {
		for v := range l.cc {
			l.cc[v] = 0
		}
		for i, v := range s.basis {
			if s.xB[i] > s.ub[v]+s.opts.Tol {
				l.cc[v] = 1
			} else if s.xB[i] < s.lb[v]-s.opts.Tol {
				l.cc[v] = -1
			}
		}
	}
	return l.cc
}

// scratchD computes the reduced costs of cost vector cc from the shadow
// inverse with the dense reference: l.y, and l.d = cc − y·F in reducedCost's
// order of operations.
func (l *lockstep) scratchD(cc []float64) {
	s := l.s
	if len(l.y) != s.m {
		l.y, l.d = make([]float64, s.m), make([]float64, s.n+s.m)
	}
	refComputeY(s, l.shadow, cc, l.y)
	for v := range l.d {
		d := cc[v]
		if v >= s.n {
			d += l.y[v-s.n]
		} else {
			for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
				d -= l.y[s.colIdx[k]] * s.colVal[k]
			}
		}
		l.d[v] = d
	}
}

// compareD requires the production d of every nonbasic variable to sit within
// tol·(1+|d|) of the scratch one (tol 0: bit for bit) and returns the largest
// relative gap.
func (l *lockstep) compareD(where string, tol float64) float64 {
	l.t.Helper()
	s, worst := l.s, 0.0
	for v, want := range l.d {
		if s.status[v] == basic {
			continue
		}
		gap := math.Abs(s.d[v]-want) / (1 + math.Abs(want))
		if gap > tol || math.IsNaN(gap) {
			l.t.Fatalf("%s (step %d): d[%d] = %v, from scratch %v", where, l.steps, v, s.d[v], want)
		}
		worst = math.Max(worst, gap)
	}
	return worst
}

// refresh runs the production refresh against the dense one: same costs, same
// y, same reduced costs, bit for bit.
func (l *lockstep) refresh(phase int) {
	l.t.Helper()
	s := l.s
	s.refreshD(phase)
	l.scratchD(l.scratchCost(phase))
	for k, want := range l.y {
		if s.y[k] != want {
			l.t.Fatalf("refresh (step %d): y[%d] = %v, dense reference %v", l.steps, k, s.y[k], want)
		}
	}
	for v, want := range l.cc {
		if s.cc[v] != want {
			l.t.Fatalf("refresh (step %d): cc[%d] = %v, dense reference %v", l.steps, v, s.cc[v], want)
		}
	}
	l.compareD("refresh", 0)
}

// verdict is called where run() is about to return a status read off the
// reduced costs: they must be what a refresh computes at this very basis.
func (l *lockstep) verdict(phase int, st Status) Status {
	l.t.Helper()
	l.scratchD(l.scratchCost(phase))
	l.compareD("verdict "+st.String(), 0)
	l.verdicts++
	return st
}

// update runs the production updateD after a bound flip (r < 0) or the pivot
// at position r and checks what it carried forward.
func (l *lockstep) update(phase, r, leaving int, dq float64) {
	l.t.Helper()
	s := l.s
	if phase == 1 {
		moved := 0
		for i, v := range s.basis {
			if i != r && s.phase1Cost(i) != s.cc[v] {
				moved++
			}
		}
		l.recosted = math.Max(l.recosted, float64(moved)/float64(s.m))
	}
	s.updateD(phase, r, leaving, dq)
	l.updates++
	l.scratchD(l.scratchCost(phase))
	l.compareD("update", carryTol)
	for k, f := range s.dy {
		if f != 0 {
			l.t.Fatalf("update (step %d): dy[%d] = %v left behind", l.steps, k, f)
		}
	}
	if phase == 1 {
		for v, want := range l.cc {
			if s.cc[v] != want {
				l.t.Fatalf("update (step %d): phase-1 cost cc[%d] = %v, from scratch %v", l.steps, v, s.cc[v], want)
			}
		}
	}
}

// refactor runs the production refactorization against the dense one; both
// must reach the same verdict on singularity. carried says d holds values
// carried from earlier pivots: they are then compared with the reduced costs
// the rebuilt inverse gives for the costs they were carried under.
func (l *lockstep) refactor(carried bool) error {
	l.t.Helper()
	err := l.s.refactor()
	ref, rerr := refGaussJordan(l.s)
	if (err == nil) != (rerr == nil) {
		l.t.Fatalf("refactor: production error %v, dense reference error %v", err, rerr)
	}
	if err != nil {
		return err
	}
	l.shadow = ref
	l.check("refactor")
	if carried {
		l.scratchD(l.s.cc)
		l.carried++
		l.drift = math.Max(l.drift, l.compareD("across a refactorization", carryTol))
	}
	return nil
}

func (l *lockstep) pivot(q, r int, t, dir float64) {
	l.t.Helper()
	l.s.pivot(q, r, t, dir)
	refPivotUpdate(l.shadow, l.s.m, r, l.s.w)
	l.check("pivot")
}

// run is simplex.run with every kernel call checked: same order of the same
// calls, so the solve it produces is the production solve (the callers
// assert that bit for bit against a production twin, counters included).
func (l *lockstep) run(phase int, iters *int) (Status, error) {
	s := l.s
	tol := s.opts.Tol
	dualTol := math.Max(tol, 1e-9)
	bland := s.opts.Bland
	stall := 0
	lastObj := math.Inf(1)
	stale := true
	for {
		if *iters >= s.opts.MaxIters {
			return IterLimit, nil
		}
		if s.sinceRefactor >= s.opts.RefactorEvery {
			if err := l.refactor(!stale); err != nil {
				return 0, err
			}
			stale = true
		}
		var obj float64
		if phase == 1 {
			if obj = s.infeasibility(); obj <= tol*float64(1+s.m) {
				return Optimal, nil
			}
		} else {
			obj = s.currentObjective()
		}
		if obj < lastObj-tol {
			lastObj, stall = obj, 0
		} else {
			stall++
		}
		if stall > 2000 && !bland {
			bland = true
			s.blandActs++
		}
		fresh := stale || l.everyIter
		if fresh {
			l.refresh(phase)
			stale = false
		}
		q := s.price(dualTol, bland)
		if q < 0 && !fresh {
			l.refresh(phase)
			fresh = true
			q = s.price(dualTol, bland)
		}
		if q < 0 {
			if phase == 1 {
				if s.sinceRefactor > 0 {
					if err := l.refactor(false); err != nil {
						return 0, err
					}
					stale = true
					continue
				}
				return l.verdict(phase, Infeasible), nil
			}
			return l.verdict(phase, Optimal), nil
		}
		dq := s.d[q]
		dir := 1.0
		if s.status[q] == nonbasicUpper || (s.status[q] == nonbasicFree && dq > 0) {
			dir = -1
		}
		s.ftran(q)
		var t float64
		var r int
		if phase == 1 {
			t, r = s.longStepRatio(q, dir, dq)
		} else {
			t, r = s.ratioTest(phase, q, dir)
		}
		if math.IsInf(t, 1) {
			if !fresh {
				stale = true
				continue
			}
			if phase == 1 {
				return 0, errors.New("unbounded phase-1 direction")
			}
			return l.verdict(phase, Unbounded), nil
		}
		*iters++
		if phase == 1 {
			s.phase1Pivots++
		} else {
			s.phase2Pivots++
		}
		if r < 0 {
			s.boundFlips++
			s.applyStep(t, dir)
			if s.status[q] == nonbasicLower {
				s.status[q], s.xval[q] = nonbasicUpper, s.ub[q]
			} else {
				s.status[q], s.xval[q] = nonbasicLower, s.lb[q]
			}
			if phase == 1 {
				l.update(phase, -1, -1, dq)
			}
			continue
		}
		if t <= tol {
			s.degenPivots++
		}
		leaving := s.basis[r]
		l.pivot(q, r, t, dir)
		l.update(phase, r, leaving, dq)
	}
}

// optimize is simplex.optimize over l.run.
func (l *lockstep) optimize(iters *int) (*Solution, error) {
	s := l.s
	st, err := l.run(1, iters)
	if err != nil {
		return nil, err
	}
	if st == Infeasible {
		return &Solution{Status: Infeasible, Iterations: *iters}, nil
	}
	if st != Optimal {
		return &Solution{Status: IterLimit, Iterations: *iters}, nil
	}
	s.perturbCosts()
	if st, err = l.run(2, iters); err != nil {
		return nil, err
	}
	copy(s.cost, s.trueCost)
	if st == Optimal || st == Unbounded {
		if st, err = l.run(2, iters); err != nil {
			return nil, err
		}
	}
	sol := s.extract(st)
	sol.Iterations = *iters
	return sol, nil
}

// optimizeFromBasis is simplex.optimizeFromBasis over l.optimize, singular
// restart included.
func (l *lockstep) optimizeFromBasis() *Solution {
	l.t.Helper()
	s := l.s
	if s.opts.Bland {
		s.blandActs++
	}
	iters := 0
	sol, err := l.optimize(&iters)
	if errors.Is(err, ErrSingularBasis) {
		s.singularRestarts++
		s.resetToLogicalBasis()
		l.resync("singular restart")
		sol, err = l.optimize(&iters)
	}
	if err != nil {
		l.t.Fatalf("lockstep solve: %v", err)
	}
	s.held = true
	return sol
}

// stage runs the production preamble of a solve or resolve — reinit, basis
// reset or install or the move onto new bounds, recomputeXB — and stops it
// before its first iteration (MaxIters < 0), then arms the real options for
// the stepped solve.
func (l *lockstep) stage(call func(context.Context, Variant, Options) (*Solution, error), opts Options) {
	l.t.Helper()
	staged := opts
	staged.MaxIters = -1
	if sol, err := call(context.Background(), Variant{}, staged); err != nil || sol.Status != IterLimit {
		l.t.Fatalf("staging a solve: %v, %v", sol, err)
	}
	l.s.opts = opts.withDefaults(l.s.m, l.s.n)
}

// solve steps a from-scratch solve (installing opts.StartBasis when given).
func (l *lockstep) solve(bs *BatchSolver, opts Options) *Solution {
	l.t.Helper()
	l.stage(bs.SolveCtx, opts)
	l.resync("initial basis")
	return l.optimizeFromBasis()
}

// resolve steps an in-place re-solve from the held factorization, which the
// preamble must not have touched.
func (l *lockstep) resolve(bs *BatchSolver, opts Options) *Solution {
	l.t.Helper()
	if !l.s.held {
		return l.solve(bs, opts)
	}
	l.stage(bs.ResolveCtx, opts)
	l.check("resolve preamble")
	return l.optimizeFromBasis()
}

// setColumn runs the production SetColumn and advances the shadow through
// the eviction pivot it makes when column j is basic.
func (l *lockstep) setColumn(bs *BatchSolver, j int, vals []float64) bool {
	l.t.Helper()
	s := l.s
	evicts := s.held && s.status[j] == basic
	r := s.inBpos[j]
	if err := bs.SetColumn(j, vals); err != nil {
		l.t.Fatalf("SetColumn: %v", err)
	}
	if evicts && s.held {
		if s.status[j] == basic {
			l.t.Fatalf("SetColumn left column %d basic", j)
		}
		refPivotUpdate(l.shadow, s.m, r, s.w)
		l.check("evict")
	}
	return evicts
}

// trio is one compiled LP under the battery's three solvers: the stepped
// production simplex with every check on, a production twin making the same
// calls through the public API (bit-identical answers and counters: the
// stepped drive is the production solve), and the stepped reference that
// refreshes on every iteration (same status, same objective to 1e-9).
type trio struct {
	t                       *testing.T
	stepped, twin, refSolve *BatchSolver
	l, ref                  *lockstep
}

func newTrio(t *testing.T, p *Problem) *trio {
	t.Helper()
	bp, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr := &trio{t: t, stepped: bp.NewSolver(), twin: bp.NewSolver(), refSolve: bp.NewSolver()}
	tr.l = &lockstep{t: t, s: tr.stepped.s}
	tr.ref = &lockstep{t: t, s: tr.refSolve.s, everyIter: true}
	return tr
}

// agree checks one stepped answer against the twin's and the reference's.
func (tr *trio) agree(trial, round int, got, want *Solution, err error, ref *Solution) *Solution {
	tr.t.Helper()
	if err != nil {
		tr.t.Fatalf("trial %d round %d: twin: %v", trial, round, err)
	}
	assertBitIdentical(tr.t, trial, round, want, got)
	if a, b := tr.stepped.s, tr.twin.s; a.priceRefreshes != b.priceRefreshes || a.refactors != b.refactors || a.boundFlips != b.boundFlips {
		tr.t.Fatalf("trial %d round %d: stepped solve refreshed %d times, refactorized %d, flipped %d; the twin %d, %d, %d",
			trial, round, a.priceRefreshes, a.refactors, a.boundFlips, b.priceRefreshes, b.refactors, b.boundFlips)
	}
	if ref.Status != got.Status || math.Abs(ref.Objective-got.Objective) > 1e-9*(1+math.Abs(ref.Objective)) {
		tr.t.Fatalf("trial %d round %d: %v objective %v, every-iteration-refresh reference %v objective %v",
			trial, round, got.Status, got.Objective, ref.Status, ref.Objective)
	}
	return got
}

// solve runs a from-scratch solve on all three.
func (tr *trio) solve(trial, round int, opts Options) *Solution {
	tr.t.Helper()
	got := tr.l.solve(tr.stepped, opts)
	want, err := tr.twin.SolveCtx(context.Background(), Variant{}, opts)
	return tr.agree(trial, round, got, want, err, tr.ref.solve(tr.refSolve, opts))
}

// resolve re-solves in place on all three.
func (tr *trio) resolve(trial, round int, opts Options) *Solution {
	tr.t.Helper()
	got := tr.l.resolve(tr.stepped, opts)
	want, err := tr.twin.ResolveCtx(context.Background(), Variant{}, opts)
	return tr.agree(trial, round, got, want, err, tr.ref.resolve(tr.refSolve, opts))
}

// kernelModes are the option sets every battery instance runs under: Dantzig
// and Bland pricing, each with a refactorization every few pivots on some
// trials so tiny LPs reach refactor mid-solve.
func kernelModes(trial int) []Options {
	every := 0
	if trial%2 == 0 {
		every = 3 + trial%5
	}
	return []Options{
		{RefactorEvery: every},
		{RefactorEvery: every, Bland: true},
	}
}

// TestKernelLockstepProperty runs the battery over 200 seeded LPs from the
// property battery's generator: a cold solve, a re-solve in place after a
// perturbation, a column overwrite (evicting it when basic) and re-solve, and
// a warm start from a recorded basis. Every third LP carries its first
// coefficient of each row as two half-entries, so the row view's unmerged
// duplicates meet the merged columns.
func TestKernelLockstepProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evictions, refactors, updates, verdicts := 0, 0, 0, 0
	for trial := 0; trial < propertyTrials; trial++ {
		seed := rng.Int63()
		for _, opts := range kernelModes(trial) {
			// Each mode builds and perturbs its own copy of the trial's LP.
			prng := rand.New(rand.NewSource(seed))
			p, _ := randomFeasibleLP(prng, 1+prng.Intn(10), 2+prng.Intn(10))
			if trial%3 == 1 {
				for i, row := range p.rows {
					row[0].Coef /= 2
					p.rows[i] = append(row, row[0])
				}
			}
			tr := newTrio(t, p)
			cold := tr.solve(trial, 0, opts)

			perturb(prng, p)
			tr.resolve(trial, 1, opts)

			// Overwrite a column on its pattern; prefer a basic one.
			j := prng.Intn(p.NumCols())
			for k := 0; k < p.NumCols(); k++ {
				if tr.stepped.s.status[k] == basic {
					j = k
					break
				}
			}
			vals := make([]float64, p.NumRows())
			for i, row := range p.rows {
				for _, e := range row {
					if e.Col == j {
						vals[i] = prng.Float64()*4 - 2
					}
				}
			}
			if tr.l.setColumn(tr.stepped, j, vals) {
				evictions++
			}
			if err := tr.twin.SetColumn(j, vals); err != nil {
				t.Fatalf("trial %d: twin SetColumn: %v", trial, err)
			}
			tr.ref.setColumn(tr.refSolve, j, vals)
			tr.resolve(trial, 2, opts)

			warm := opts
			warm.StartBasis = cold.Basis()
			tr.solve(trial, 3, warm)
			refactors += tr.stepped.s.refactors
			updates += tr.l.updates
			verdicts += tr.l.verdicts
		}
	}
	if evictions == 0 || refactors == 0 || updates == 0 || verdicts == 0 {
		t.Fatalf("battery saw %d evictions, %d refactorizations, %d reduced-cost updates, %d verdicts: a path went untested",
			evictions, refactors, updates, verdicts)
	}
}

// networkLP builds a seeded multi-commodity min-cost flow: one conservation
// equality per (commodity, node), one shared capacity row per arc, a boxed
// flow variable per (commodity, arc). Supplies and capacities come from a
// random flow, so the LP is feasible, and every node supplies or demands
// every commodity, so the logical basis is infeasible in almost every row.
// It has the shape of this repository's TE LPs — ±1 conservation columns
// coupled by capacity rows, an inverse that is mostly zeros (5-35 % dense),
// a long phase 1, finite column boxes that produce bound flips — at m =
// nodes·commodities + arcs rows. With spread > 0 each arc draws a magnitude
// from 10^±spread/2 that scales its flow boxes, loads and capacity.
func networkLP(rng *rand.Rand, nodes, arcs, commodities int, spread float64) *Problem {
	p := NewProblem()
	type arc struct{ from, to int }
	net := make([]arc, arcs)
	for e := range net {
		if e < nodes {
			net[e] = arc{e, (e + 1) % nodes} // a ring first, so every node is reachable
			continue
		}
		from := rng.Intn(nodes)
		net[e] = arc{from, (from + 1 + rng.Intn(nodes-1)) % nodes}
	}
	load := make([]float64, arcs)
	capacity := make([][]Entry, arcs)
	scale := make([]float64, arcs)
	for e := range scale {
		scale[e] = 1
		if spread > 0 {
			scale[e] = math.Pow(10, spread*(rng.Float64()-0.5))
		}
	}
	for k := 0; k < commodities; k++ {
		conserve := make([][]Entry, nodes)
		supply := make([]float64, nodes)
		for e, a := range net {
			ub := scale[e] * (1 + 3*rng.Float64())
			x := p.AddCol("f", 0, ub, 1+rng.Float64())
			conserve[a.from] = append(conserve[a.from], Entry{x, 1})
			conserve[a.to] = append(conserve[a.to], Entry{x, -1})
			capacity[e] = append(capacity[e], Entry{x, 1})
			if rng.Intn(3) == 0 {
				x0 := ub * rng.Float64()
				supply[a.from] += x0
				supply[a.to] -= x0
				load[e] += x0
			}
		}
		for v := 0; v < nodes; v++ {
			p.AddEQ("conserve", supply[v], conserve[v]...)
		}
	}
	for e := range net {
		p.AddLE("capacity", load[e]+scale[e]*rng.Float64(), capacity[e]...)
	}
	return p
}

// TestKernelLockstepNetwork runs the battery at the size the bitmap is for:
// network LPs with m ≈ 150-300 whose inverse is mostly zeros. Per instance and
// mode: a cold solve, a re-solve after tightening capacities, and a forced
// singular restart — the held basis is corrupted with a duplicate column so
// the next refactorization fails half-way through its in-place elimination,
// and the restart from the logical basis must reproduce the cold solve.
func TestKernelLockstepNetwork(t *testing.T) {
	sizes := []struct{ nodes, arcs, commodities int }{{10, 30, 12}, {12, 40, 14}, {14, 48, 18}}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for trial, size := range sizes {
		for mode, opts := range []Options{{}, {Bland: true}} {
			if mode > 0 && trial > 0 {
				break // Bland needs 10-20× the iterations; the smallest size covers it
			}
			p := networkLP(rand.New(rand.NewSource(int64(101+trial))), size.nodes, size.arcs, size.commodities, 0)
			tr := newTrio(t, p)
			l, s := tr.l, tr.stepped.s

			cold := tr.solve(trial, 0, opts)
			if cold.Status != Optimal || s.phase1Pivots == 0 || s.boundFlips == 0 || s.refactors == 0 || l.carried == 0 {
				t.Fatalf("trial %d mode %d: status %v with %d phase-1 pivots, %d bound flips, %d refactorizations, %d with carried reduced costs: not the workload this test is for",
					trial, mode, cold.Status, s.phase1Pivots, s.boundFlips, s.refactors, l.carried)
			}
			nnz := 0
			for _, b := range s.binv {
				if b != 0 {
					nnz++
				}
			}
			t.Logf("trial %d mode %d: m=%d n=%d, %d iterations (%d refreshes), %d checked steps, inverse %.1f%% dense, drift across refactorizations ≤ %.2g",
				trial, mode, s.m, s.n, cold.Iterations, s.priceRefreshes, l.steps, 100*float64(nnz)/float64(s.m*s.m), l.drift)

			for i := p.NumRows() - size.arcs; i < p.NumRows(); i++ {
				p.SetRowBounds(i, p.rowLB[i], 0.8*p.rowUB[i])
			}
			tr.resolve(trial, 1, opts)

			// Duplicate the first basic column into the last position and
			// make the next iteration refactorize.
			l.stage(tr.stepped.ResolveCtx, opts)
			s.basis[s.m-1] = s.basis[0]
			s.sinceRefactor = s.opts.RefactorEvery
			got := l.optimizeFromBasis()
			if s.singularRestarts != 1 {
				t.Fatalf("trial %d mode %d: %d singular restarts, want 1", trial, mode, s.singularRestarts)
			}
			// The failed attempt spent no iteration, so the restart is the
			// cold solve of the tightened LP, pivot for pivot.
			want, err := tr.twin.SolveCtx(context.Background(), Variant{}, opts)
			tr.agree(trial, 2, got, want, err, tr.ref.solve(tr.refSolve, opts))
		}
	}
}
