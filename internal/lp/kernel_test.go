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
// The simplex solves with B through sparse LU factors and an eta file, and
// the claim is that those solves are B⁻¹'s. The functions below are the dense
// explicit inverse the factorization replaced, kept as the reference: a
// shadow B⁻¹ that only Gauss-Jordan and the dense pivot update ever advance.
// Every ftran of an entering column, a probe row and column of B⁻¹ after
// every step, all of B⁻¹ after every refactorization, and y after every
// refresh must agree with the shadow to kernelTol, normwise.
//
// The simplex prices from reduced costs it carries from pivot to pivot, and
// the claim is that they stay the reduced costs: after every update and every
// refresh d must agree with cc − y·F computed from scratch through the shadow
// to carryTol·(1+|d|), with the phase-1 costs equal and the dy scratch back at
// zero; across a refactorization (which rebuilds the factors the carried
// values came through) likewise; and at every verdict — optimal, infeasible,
// unbounded — d must equal, bit for bit, what the production kernels compute
// from scratch at that basis, because a verdict is only ever reached on values
// a refresh has just computed. Every stepped solve is also matched, status
// and objective, by a reference twin that refreshes on every iteration.
//
// A warm start (a held or supplied basis) steps the dual simplex (dual.go)
// when it is dual feasible: there the pivot row ρ·F and ρ itself are held to
// the dense inverse, the basic values' move under each batch of bound flips
// to the dense B⁻¹ times the flipped columns' moves, d carried along the
// pivot row to the from-scratch one, and each verdict to the dense basic
// values (optimal) or the dense pivot row on fresh factors (infeasible).

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
		if best < singularTol {
			return nil, ErrSingularBasis
		}
		for k := 0; k < m; k++ {
			a[p*m+k], a[c*m+k] = a[c*m+k], a[p*m+k]
			inv[p*m+k], inv[c*m+k] = inv[c*m+k], inv[p*m+k]
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

// refFtran is B⁻¹·F_q through a dense inverse.
func refFtran(s *simplex, binv []float64, q int) []float64 {
	m := s.m
	w := make([]float64, m)
	for i := 0; i < m; i++ {
		if q >= s.n {
			w[i] = -binv[i*m+q-s.n]
			continue
		}
		for k := s.colPtr[q]; k < s.colPtr[q+1]; k++ {
			w[i] += binv[i*m+int(s.colIdx[k])] * s.colVal[k]
		}
	}
	return w
}

// kernelTol bounds, relative to 1+‖want‖∞, how far a vector solved through
// the factors may sit from the same vector through the dense shadow, in the
// ∞-norm: two different eliminations of one matrix, each carrying up to
// RefactorEvery updates (measured: under 1e-13 on every LP of the batteries,
// the near-parallel and six-decade ones included).
const kernelTol = 1e-10

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
	updates, verdicts, carried      int     // carried: refactorizations that d was carried across
	dualSteps, dualFlips, handovers int     // dual pivots, flipped variables, stalled duals handed to the primal
	dualInfeasible                  int     // Infeasible verdicts the dual reached
	drift                           float64 // largest relative gap seen across one
	recosted                        float64 // largest share of the basis one phase-1 step re-costed
	solveGap                        float64 // largest relative gap of a solve against the shadow
}

// within requires got to sit within kernelTol of want, normwise.
func (l *lockstep) within(where string, got, want []float64) {
	l.t.Helper()
	diff, norm := 0.0, 0.0
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		norm = math.Max(norm, math.Abs(want[i]))
	}
	gap := diff / (1 + norm)
	if gap > kernelTol || math.IsNaN(gap) {
		l.t.Fatalf("%s (step %d): relative gap %.3g to the dense reference (got %v, want %v)", where, l.steps, gap, got, want)
	}
	l.solveGap = math.Max(l.solveGap, gap)
}

// probe checks row k of B⁻¹ (btran of e_k) and column k (ftran of e_k), as
// the factors give them, against the shadow.
func (l *lockstep) probe(where string, k int) {
	l.t.Helper()
	s, m := l.s, l.s.m
	in, out, col := make([]float64, m), make([]float64, m), make([]float64, m)
	in[k] = 1
	s.lu.btran(in, out)
	l.within(where+": row of B⁻¹", out, l.shadow[k*m:k*m+m])
	in[k] = 1
	s.lu.ftran(in, out)
	for i := range col {
		col[i] = l.shadow[i*m+k]
	}
	l.within(where+": column of B⁻¹", out, col)
}

// check probes one row and column of B⁻¹, a different one each step.
func (l *lockstep) check(where string) {
	l.t.Helper()
	l.steps++
	if l.s.m > 0 {
		l.probe(where, l.steps%l.s.m)
	}
}

// checkAll probes every row and column of B⁻¹.
func (l *lockstep) checkAll(where string) {
	l.t.Helper()
	l.steps++
	for k := 0; k < l.s.m; k++ {
		l.probe(where, k)
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
	l.checkAll(where)
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
			if s.xB[i] > s.ub[v]+DefaultTol {
				l.cc[v] = 1
			} else if s.xB[i] < s.lb[v]-DefaultTol {
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

// refresh runs the production refresh against the dense one: the same costs
// exactly, y and the reduced costs within tolerance.
func (l *lockstep) refresh(phase int) {
	l.t.Helper()
	s := l.s
	s.refreshD(phase)
	l.scratchD(l.scratchCost(phase))
	l.within("refresh: y", s.y, l.y)
	for v, want := range l.cc {
		if s.cc[v] != want {
			l.t.Fatalf("refresh (step %d): cc[%d] = %v, dense reference %v", l.steps, v, s.cc[v], want)
		}
	}
	l.compareD("refresh", carryTol)
}

// verdict is called where run() is about to return a status read off the
// reduced costs: they must be, bit for bit, what the production kernels
// compute from scratch at this very basis, and near the dense ones.
func (l *lockstep) verdict(phase int, st Status) Status {
	l.t.Helper()
	s := l.s
	s.computeY()
	for v, stv := range s.status {
		if stv != basic && s.reducedCost(v) != s.d[v] {
			l.t.Fatalf("verdict %v (step %d): d[%d] = %v, from scratch %v", st, l.steps, v, s.d[v], s.reducedCost(v))
		}
	}
	l.scratchD(l.scratchCost(phase))
	l.compareD("verdict "+st.String(), carryTol)
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
	l.checkAll("refactor")
	if carried {
		l.scratchD(l.s.cc)
		l.carried++
		l.drift = math.Max(l.drift, l.compareD("across a refactorization", carryTol))
	}
	return nil
}

func (l *lockstep) pivot(q, r int, t, dir float64) {
	l.t.Helper()
	w := refFtran(l.s, l.shadow, q)
	l.s.pivot(q, r, t, dir)
	refPivotUpdate(l.shadow, l.s.m, r, w)
	l.check("pivot")
}

// price is s.price held to priceRef at the same state.
func (l *lockstep) price(dualTol float64, bland bool) int {
	l.t.Helper()
	q := l.s.price(dualTol, bland)
	if want := priceRef(l.s, dualTol, bland); q != want {
		l.t.Fatalf("price (step %d) chose %d, the reference scan %d", l.steps, q, want)
	}
	return q
}

// priceRef is the pricing scan without the |d| pre-filter: status and bounds
// first, then the score of every remaining variable.
func priceRef(s *simplex, dualTol float64, bland bool) int {
	best, bestScore := -1, dualTol
	for v, st := range s.status {
		if st == basic {
			continue
		}
		if s.ub[v]-s.lb[v] <= 0 {
			continue
		}
		d := s.d[v]
		var score float64
		switch st {
		case nonbasicLower:
			score = -d
		case nonbasicUpper:
			score = d
		case nonbasicFree:
			score = math.Abs(d)
		}
		if score > bestScore {
			if bland {
				return v
			}
			best, bestScore = v, score
		}
	}
	return best
}

// TestPriceMatchesRef: on random pricing states price picks the same index as
// priceRef, under Dantzig and Bland and at several tolerances. The reduced
// costs mix NaN, ±0, ±Inf, exact ties and values around the tolerance; the
// variables mix fixed, free, boxed and half-open bounds with every status,
// basic ones carrying stale, often winning-sized d.
func TestPriceMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1e-9, -1e-9, 1e-12, -1e-12, 1e-6, -1e-6, 1, -1, 2, -2}
	bounds := [][2]float64{{0, 0}, {1, 1}, {-Inf, Inf}, {0, 1}, {0, Inf}, {-Inf, 0}, {-3, 5}}
	for trial := 0; trial < 3000; trial++ {
		nv := 1 + rng.Intn(40)
		s := &simplex{
			status: make([]varStatus, nv),
			lb:     make([]float64, nv),
			ub:     make([]float64, nv),
			d:      make([]float64, nv),
		}
		for v := 0; v < nv; v++ {
			s.status[v] = varStatus(rng.Intn(4))
			b := bounds[rng.Intn(len(bounds))]
			s.lb[v], s.ub[v] = b[0], b[1]
			if rng.Intn(2) == 0 {
				s.d[v] = specials[rng.Intn(len(specials))]
			} else {
				s.d[v] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-9))
			}
		}
		for _, dualTol := range []float64{0, 1e-9, 1e-6, 1} {
			for _, bland := range []bool{false, true} {
				if got, want := s.price(dualTol, bland), priceRef(s, dualTol, bland); got != want {
					t.Fatalf("trial %d tol %g bland %v: price %d, reference %d\nstatus %v\nlb %v\nub %v\nd %v",
						trial, dualTol, bland, got, want, s.status, s.lb, s.ub, s.d)
				}
			}
		}
	}
}

// run is simplex.run with every kernel call checked: same order of the same
// calls, so the solve it produces is the production solve (the callers
// assert that bit for bit against a production twin, counters included).
func (l *lockstep) run(phase int, iters *int) (Status, error) {
	s := l.s
	tol := DefaultTol
	dualTol := DefaultTol
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
		if phase == 1 && s.infeasibility() <= tol*float64(1+s.m) {
			return Optimal, nil
		}
		fresh := stale || l.everyIter
		if fresh {
			l.refresh(phase)
			stale = false
		}
		q := l.price(dualTol, s.opts.Bland)
		if q < 0 && !fresh {
			l.refresh(phase)
			fresh = true
			q = l.price(dualTol, s.opts.Bland)
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
		l.within("ftran", s.w, refFtran(s, l.shadow, q))
		var t float64
		var r int
		if phase == 1 {
			t, r = s.longStepRatio(q, dir, dq)
		} else {
			t, r = s.ratioTest(q, dir)
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

// optimize is simplex.optimize over l.dual and l.run.
func (l *lockstep) optimize(iters *int, warm bool) (*Solution, error) {
	s := l.s
	if warm && !s.opts.Bland {
		if s.sinceRefactor >= s.opts.RefactorEvery {
			if err := l.refactor(false); err != nil {
				return nil, err
			}
		}
		if l.dualFeasible() {
			st, err := l.dual(iters)
			copy(s.cost, s.trueCost)
			if err != nil {
				return nil, err
			}
			switch st {
			case Optimal:
				if st, err = l.run(2, iters); err != nil {
					return nil, err
				}
				sol := s.extract(st)
				sol.Iterations = *iters
				return sol, nil
			case Infeasible, IterLimit:
				return &Solution{Status: st, Iterations: *iters}, nil
			}
			l.handovers++
		}
	}
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

// dualFeasible is simplex.dualFeasible with its refresh held to the dense
// reference.
func (l *lockstep) dualFeasible() bool {
	l.t.Helper()
	s := l.s
	ok := s.dualFeasible(DefaultTol)
	l.scratchD(l.scratchCost(2))
	l.compareD("dual entry", carryTol)
	return ok
}

// dual is simplex.dual with every kernel call checked: the refresh and the
// cost shifts, ρ and the pivot row against the dense inverse, the basic
// values' move under the bound flips, the entering ftran, the pivot, and
// the reduced costs carried along the pivot row.
func (l *lockstep) dual(iters *int) (Status, error) {
	s := l.s
	tol := DefaultTol
	dualTol := DefaultTol
	s.perturbCosts()
	stale := true
	stall, lastObj := 0, math.Inf(-1)
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
		if stale || l.everyIter {
			l.refresh(2)
			s.shiftCosts()
			l.shifted()
			stale = false
		}
		r, delta := s.dualLeave(tol)
		if r < 0 {
			return l.dualVerdict(Optimal, -1, 0), nil
		}
		if obj := s.currentObjective(); obj > lastObj+tol {
			lastObj, stall = obj, 0
		} else if stall++; stall > dualStallLimit {
			return stalled, nil
		}
		l.dualRow(r)
		q, flips, short := s.dualRatio(delta, tol, dualTol)
		if q >= 0 {
			s.ftran(q)
			l.within("dual ftran", s.w, refFtran(s, l.shadow, q))
		}
		if q < 0 || !s.pivotAgrees(r, q) {
			if s.sinceRefactor > 0 {
				if err := l.refactor(false); err != nil {
					return 0, err
				}
				stale = true
				continue
			}
			if q >= 0 || short <= tol*float64(1+s.m) {
				return stalled, nil
			}
			return l.dualVerdict(Infeasible, r, delta), nil
		}
		*iters++
		s.dualPivots++
		leaving := s.basis[r]
		l.flipBounds(s.bps[:flips])
		theta := s.dualTheta(q, delta)
		if math.Abs(theta) <= tol {
			s.degenPivots++
		}
		t, dir := s.dualPrimalStep(r, leaving, delta)
		l.pivot(q, r, t, dir)
		s.carryD(leaving, theta)
		l.dualSteps++
		l.updates++
		l.scratchD(l.scratchCost(2))
		l.compareD("dual update", carryTol)
	}
}

// shifted checks the cost shifts just made: every nonbasic variable prices
// with the sign its bound wants, and the reduced costs still agree with the
// dense ones under the shifted costs.
func (l *lockstep) shifted() {
	l.t.Helper()
	s := l.s
	for v, st := range s.status {
		if d := s.d[v]; s.ub[v]-s.lb[v] > 0 && ((st == nonbasicLower && d < 0) || (st == nonbasicUpper && d > 0) || (st == nonbasicFree && d != 0)) {
			l.t.Fatalf("shift (step %d): d[%d] = %v left with the wrong sign at status %d", l.steps, v, d, st)
		}
	}
	l.scratchD(l.scratchCost(2))
	l.compareD("shift", carryTol)
}

// refPivotRow is row r of the dense inverse and the pivot row it gives,
// ρ·F_v for every variable.
func refPivotRow(s *simplex, binv []float64, r int) (rho, alpha []float64) {
	m := s.m
	rho = binv[r*m : r*m+m]
	alpha = make([]float64, s.n+m)
	for v := range alpha {
		if v >= s.n {
			alpha[v] = -rho[v-s.n]
			continue
		}
		for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
			alpha[v] += rho[s.colIdx[k]] * s.colVal[k]
		}
	}
	return rho, alpha
}

// dualRow runs the production pivot row against the dense one.
func (l *lockstep) dualRow(r int) {
	l.t.Helper()
	s := l.s
	s.dualRow(r)
	rho, alpha := refPivotRow(s, l.shadow, r)
	l.within("dual ρ", s.rho, rho)
	l.within("dual pivot row", s.alpha, alpha)
}

// flipBounds runs the production flips and holds the basic values' move to
// the dense B⁻¹ times the flipped columns' moves.
func (l *lockstep) flipBounds(bps []breakpoint) {
	l.t.Helper()
	s := l.s
	m := s.m
	before := append([]float64(nil), s.xB...)
	from := make([]float64, len(bps))
	for k, bp := range bps {
		from[k] = s.xval[bp.i]
	}
	s.flipBounds(bps)
	col := make([]float64, m) // Σ F_v·Δx_v by row
	for k, bp := range bps {
		v, dx := bp.i, s.xval[bp.i]-from[k]
		if s.status[v] == basic || dx == 0 || math.IsInf(dx, 0) {
			l.t.Fatalf("flip (step %d): variable %d status %d moved by %v", l.steps, v, s.status[v], dx)
		}
		if v >= s.n {
			col[v-s.n] -= dx
		} else {
			for e := s.colPtr[v]; e < s.colPtr[v+1]; e++ {
				col[s.colIdx[e]] += s.colVal[e] * dx
			}
		}
	}
	want := make([]float64, m)
	for i := 0; i < m; i++ {
		move := 0.0
		for k := 0; k < m; k++ {
			move += l.shadow[i*m+k] * col[k]
		}
		want[i] = before[i] - move
	}
	l.within("dual flips: basic values", s.xB, want)
	l.dualFlips += len(bps)
}

// dualVerdict is called where dual() returns a verdict. Optimal reads the
// basic values: they must sit within tol of their bounds and near the dense
// B⁻¹·(−Σ F_j·x_j). Infeasible (row r, delta beyond its bound) is reached on
// fresh factors only, and the dense pivot row must confirm it: with every
// eligible variable moved across its whole box the row still falls short of
// its bound by more than phase 1's feasibility allowance, tol·(1+m).
func (l *lockstep) dualVerdict(st Status, r int, delta float64) Status {
	l.t.Helper()
	s := l.s
	m := s.m
	rhs := make([]float64, m)
	for v := 0; v < s.n+m; v++ {
		if s.status[v] == basic {
			continue
		}
		if v >= s.n {
			rhs[v-s.n] += s.xval[v]
			continue
		}
		for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
			rhs[s.colIdx[k]] -= s.colVal[k] * s.xval[v]
		}
	}
	want := make([]float64, m)
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			want[i] += l.shadow[i*m+k] * rhs[k]
		}
	}
	l.within("dual verdict "+st.String()+": basic values", s.xB, want)
	switch st {
	case Optimal:
		for i, v := range s.basis {
			if s.xB[i] < s.lb[v]-DefaultTol || s.xB[i] > s.ub[v]+DefaultTol {
				l.t.Fatalf("dual verdict optimal (step %d): basic %d = %v outside [%v, %v]", l.steps, v, s.xB[i], s.lb[v], s.ub[v])
			}
		}
	case Infeasible:
		if s.sinceRefactor != 0 {
			l.t.Fatalf("dual verdict infeasible (step %d) on factors %d pivots old", l.steps, s.sinceRefactor)
		}
		_, alpha := refPivotRow(s, l.shadow, r)
		reach := 0.0
		for v, a := range alpha {
			st := s.status[v]
			if st == basic || math.Abs(a) <= pivotTol || s.ub[v]-s.lb[v] <= 0 {
				continue
			}
			if at := math.Copysign(1, delta) * a; (st == nonbasicLower && at < 0) || (st == nonbasicUpper && at > 0) {
				continue
			}
			reach += math.Abs(a) * (s.ub[v] - s.lb[v])
		}
		if reach >= math.Abs(delta)-DefaultTol*float64(1+m) {
			l.t.Fatalf("dual verdict infeasible (step %d): the dense pivot row reaches %v of the row's %v", l.steps, reach, math.Abs(delta))
		}
		l.dualInfeasible++
	}
	l.verdicts++
	return st
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
	sol, err := l.optimize(&iters, s.warmAccepted)
	if errors.Is(err, ErrSingularBasis) {
		s.singularRestarts++
		s.resetToLogicalBasis()
		l.resync("singular restart")
		sol, err = l.optimize(&iters, false)
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
	// A warm start tests dual feasibility, one refresh, before its first
	// iteration check; the stepped solve makes that refresh again.
	l.s.priceRefreshes = 0
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
		refPivotUpdate(l.shadow, s.m, r, refFtran(s, l.shadow, s.basis[r]))
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
	evictions, refactors, updates, verdicts, dualSteps, dualFlips := 0, 0, 0, 0, 0, 0
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
			dualSteps += tr.l.dualSteps
			dualFlips += tr.l.dualFlips
		}
	}
	t.Logf("%d dual pivots, %d dual bound flips", dualSteps, dualFlips)
	if evictions == 0 || refactors == 0 || updates == 0 || verdicts == 0 || dualSteps == 0 || dualFlips == 0 {
		t.Fatalf("battery saw %d evictions, %d refactorizations, %d reduced-cost updates, %d verdicts, %d dual pivots, %d dual bound flips: a path went untested",
			evictions, refactors, updates, verdicts, dualSteps, dualFlips)
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

// TestKernelLockstepNetwork runs the battery at the size the factorization is
// for: network LPs with m ≈ 150-300 whose bases are mostly singletons. Per
// instance and mode: a cold solve, a re-solve after tightening capacities,
// and a forced singular restart — the held basis is corrupted with a
// duplicate column so the next refactorization fails part-way, and the
// restart from the logical basis must reproduce the cold solve.
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
			t.Logf("trial %d mode %d: m=%d n=%d, %d iterations (%d refreshes), %d checked steps, %.1f factor nonzeros per row, drift across refactorizations ≤ %.2g, solves within %.2g of the dense inverse",
				trial, mode, s.m, s.n, cold.Iterations, s.priceRefreshes, l.steps, float64(cold.FactorNonzeros)/float64(s.m), l.drift, l.solveGap)

			for i := p.NumRows() - size.arcs; i < p.NumRows(); i++ {
				p.SetRowBounds(i, p.rowLB[i], 0.8*p.rowUB[i])
			}
			tr.resolve(trial, 1, opts)
			t.Logf("trial %d mode %d: re-solve after tightening: %d dual pivots, %d dual bound flips", trial, mode, l.dualSteps, l.dualFlips)

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
