package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The lockstep kernel battery. The simplex walks its basis inverse through
// an exact nonzero bitmap; the claim is that this changes no value anywhere
// (every skipped operation adds or subtracts an exact zero). The three
// functions below are the dense loops the bitmap kernels replaced, kept
// verbatim as the reference. The battery drives solves one step at a time
// from here — phaseCost, computeY, price, ftran, ratio test, pivot, with
// refactorizations where run() would place them — and after every step
// requires the production y to equal the reference y, the production binv to
// equal a shadow inverse that only the dense reference ever advanced (float
// ==, so a +0 and a -0 agree), and the bitmap to be exact.

// refComputeY is the dense computeY: y = cc_B^T · B⁻¹ over every entry of
// binv, eta file first when there is one.
func refComputeY(s *simplex, binv, y []float64) {
	m := s.m
	for k := 0; k < m; k++ {
		y[k] = 0
	}
	if len(s.etas) > 0 {
		u := make([]float64, m)
		for i := 0; i < m; i++ {
			u[i] = s.cc[s.basis[i]]
		}
		s.applyEtasT(u)
		for i := 0; i < m; i++ {
			ui := u[i]
			if ui == 0 {
				continue
			}
			row := binv[i*m : i*m+m]
			for k := 0; k < m; k++ {
				y[k] += ui * row[k]
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		cb := s.cc[s.basis[i]]
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

// lockstep pairs a production simplex with the shadow inverse and drives it.
type lockstep struct {
	t      *testing.T
	s      *simplex
	shadow []float64
	y      []float64
	steps  int
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

// refactor runs the production refactorization against the dense one; both
// must reach the same verdict on singularity.
func (l *lockstep) refactor() error {
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
	return nil
}

func (l *lockstep) computeY() {
	l.t.Helper()
	s := l.s
	s.computeY()
	if len(l.y) != s.m {
		l.y = make([]float64, s.m)
	}
	refComputeY(s, l.shadow, l.y)
	for k, want := range l.y {
		if s.y[k] != want {
			l.t.Fatalf("computeY (step %d, %d etas): y[%d] = %v, dense reference %v", l.steps, len(s.etas), k, s.y[k], want)
		}
	}
}

func (l *lockstep) pivot(q, r int, t, dir float64) {
	l.t.Helper()
	l.s.pivot(q, r, t, dir)
	if !l.s.opts.EtaUpdates {
		refPivotUpdate(l.shadow, l.s.m, r, l.s.w)
	}
	l.check("pivot")
}

// run is simplex.run with every kernel call checked: same order of the same
// calls, so the solve it produces is the production solve (the callers
// assert that bit for bit against a production twin).
func (l *lockstep) run(phase int, iters *int) (Status, error) {
	s := l.s
	tol := s.opts.Tol
	dualTol := math.Max(tol, 1e-9)
	bland := s.opts.Bland
	stall := 0
	lastObj := math.Inf(1)
	for {
		if *iters >= s.opts.MaxIters {
			return IterLimit, nil
		}
		if s.sinceRefactor >= s.opts.RefactorEvery {
			if err := l.refactor(); err != nil {
				return 0, err
			}
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
		s.phaseCost(phase)
		l.computeY()
		q := s.price(dualTol, bland)
		if q < 0 {
			if phase == 1 {
				if s.sinceRefactor > 0 {
					if err := l.refactor(); err != nil {
						return 0, err
					}
					continue
				}
				return Infeasible, nil
			}
			return Optimal, nil
		}
		dq := s.reducedCost(q)
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
			if phase == 1 {
				return 0, errors.New("unbounded phase-1 direction")
			}
			return Unbounded, nil
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
			continue
		}
		if t <= tol {
			s.degenPivots++
		}
		l.pivot(q, r, t, dir)
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
// the eviction pivot it makes when column j is basic: evict refactorizes a
// non-empty eta file first, then pivots a row logical into j's position.
func (l *lockstep) setColumn(bs *BatchSolver, j int, vals []float64) bool {
	l.t.Helper()
	s := l.s
	evicts := s.held && s.status[j] == basic
	r := s.inBpos[j]
	if evicts && len(s.etas) > 0 {
		ref, err := refGaussJordan(s)
		if err != nil {
			l.t.Fatalf("SetColumn: reference refactorization: %v", err)
		}
		l.shadow = ref
	}
	if err := bs.SetColumn(j, vals); err != nil {
		l.t.Fatalf("SetColumn: %v", err)
	}
	if evicts && s.held {
		if s.status[j] == basic {
			l.t.Fatalf("SetColumn left column %d basic", j)
		}
		if !s.opts.EtaUpdates {
			refPivotUpdate(l.shadow, s.m, r, s.w)
		}
		l.check("evict")
	}
	return evicts
}

// kernelModes are the option sets every battery instance runs under: the
// dense update and the eta file, each also with a refactorization every few
// pivots so tiny LPs reach refactor mid-solve.
func kernelModes(trial int) []Options {
	every := 0
	if trial%2 == 0 {
		every = 3 + trial%5
	}
	return []Options{
		{RefactorEvery: every},
		{RefactorEvery: every, EtaUpdates: true},
	}
}

// TestKernelLockstepProperty runs the battery over 200 seeded LPs from the
// property battery's generator: a cold solve, a re-solve in place after a perturbation, a column
// overwrite (evicting it when basic) and re-solve, and a warm start from a
// recorded basis — each stepped in lockstep with the dense reference, and
// each answer bit-identical to a production twin making the same calls.
func TestKernelLockstepProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	evictions, refactors := 0, 0
	for trial := 0; trial < propertyTrials; trial++ {
		seed := rng.Int63()
		for mode, opts := range kernelModes(trial) {
			// Each mode builds and perturbs its own copy of the trial's LP.
			prng := rand.New(rand.NewSource(seed))
			p, _ := randomFeasibleLP(prng, 1+prng.Intn(10), 2+prng.Intn(10))
			bp, err := p.Compile()
			if err != nil {
				t.Fatalf("trial %d: compile: %v", trial, err)
			}
			stepped, twin := bp.NewSolver(), bp.NewSolver()
			l := &lockstep{t: t, s: stepped.s}
			agree := func(round int, got *Solution, want *Solution, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("trial %d mode %d round %d: twin: %v", trial, mode, round, err)
				}
				assertBitIdentical(t, trial, round, want, got)
			}

			cold := l.solve(stepped, opts)
			want, err := twin.SolveCtx(ctx, Variant{}, opts)
			agree(0, cold, want, err)

			perturb(prng, p)
			got := l.resolve(stepped, opts)
			want, err = twin.ResolveCtx(ctx, Variant{}, opts)
			agree(1, got, want, err)

			// Overwrite a column on its pattern; prefer a basic one.
			j := prng.Intn(p.NumCols())
			for k := 0; k < p.NumCols(); k++ {
				if stepped.s.status[k] == basic {
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
			if l.setColumn(stepped, j, vals) {
				evictions++
			}
			if err := twin.SetColumn(j, vals); err != nil {
				t.Fatalf("trial %d: twin SetColumn: %v", trial, err)
			}
			got = l.resolve(stepped, opts)
			want, err = twin.ResolveCtx(ctx, Variant{}, opts)
			agree(2, got, want, err)

			warm := opts
			warm.StartBasis = cold.Basis()
			got = l.solve(stepped, warm)
			want, err = twin.SolveCtx(ctx, Variant{}, warm)
			agree(3, got, want, err)
			refactors += stepped.s.refactors
		}
	}
	if evictions == 0 || refactors == 0 {
		t.Fatalf("battery saw %d evictions and %d refactorizations: a path went untested", evictions, refactors)
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
// nodes·commodities + arcs rows.
func networkLP(rng *rand.Rand, nodes, arcs, commodities int) *Problem {
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
	for k := 0; k < commodities; k++ {
		conserve := make([][]Entry, nodes)
		supply := make([]float64, nodes)
		for e, a := range net {
			ub := 1 + 3*rng.Float64()
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
		p.AddLE("capacity", load[e]+rng.Float64(), capacity[e]...)
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
	ctx := context.Background()
	for trial, size := range sizes {
		for mode, opts := range []Options{{}, {EtaUpdates: true}} {
			p := networkLP(rand.New(rand.NewSource(int64(101+trial))), size.nodes, size.arcs, size.commodities)
			bp, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			stepped, twin := bp.NewSolver(), bp.NewSolver()
			l := &lockstep{t: t, s: stepped.s}
			s := stepped.s

			cold := l.solve(stepped, opts)
			want, err := twin.SolveCtx(ctx, Variant{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, trial, 0, want, cold)
			if cold.Status != Optimal || s.phase1Pivots == 0 || s.boundFlips == 0 || s.refactors == 0 {
				t.Fatalf("trial %d mode %d: status %v with %d phase-1 pivots, %d bound flips, %d refactorizations: not the workload this test is for",
					trial, mode, cold.Status, s.phase1Pivots, s.boundFlips, s.refactors)
			}
			nnz := 0
			for _, b := range s.binv {
				if b != 0 {
					nnz++
				}
			}
			t.Logf("trial %d mode %d: m=%d n=%d, %d iterations, %d checked steps, inverse %.1f%% dense",
				trial, mode, s.m, s.n, cold.Iterations, l.steps, 100*float64(nnz)/float64(s.m*s.m))

			for i := p.NumRows() - size.arcs; i < p.NumRows(); i++ {
				p.SetRowBounds(i, p.rowLB[i], 0.8*p.rowUB[i])
			}
			got := l.resolve(stepped, opts)
			if want, err = twin.ResolveCtx(ctx, Variant{}, opts); err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, trial, 1, want, got)

			// Duplicate the first basic column into the last position and
			// make the next iteration refactorize.
			l.stage(stepped.ResolveCtx, opts)
			s.basis[s.m-1] = s.basis[0]
			s.sinceRefactor = s.opts.RefactorEvery
			got = l.optimizeFromBasis()
			if s.singularRestarts != 1 {
				t.Fatalf("trial %d mode %d: %d singular restarts, want 1", trial, mode, s.singularRestarts)
			}
			if want, err = twin.SolveCtx(ctx, Variant{}, opts); err != nil {
				t.Fatal(err)
			}
			// The failed attempt spent no iteration, so the restart is the
			// cold solve of the tightened LP, pivot for pivot.
			assertBitIdentical(t, trial, 2, want, got)
		}
	}
}
