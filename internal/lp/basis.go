package lp

import "math"

// Basis captures the simplex basis of a solved problem so a subsequent
// solve of a *slightly modified* problem (changed bounds or costs, same
// rows and columns) can start from it instead of from scratch. This is the
// standard warm-start mechanism branch-and-bound needs: a child node
// differs from its parent only in one variable's bounds, so re-solving
// from the parent's basis typically takes a handful of pivots instead of
// hundreds.
type Basis struct {
	// colStat[j] ∈ {nonbasicLower, nonbasicUpper, nonbasicFree, basic} per
	// structural column; rowStat likewise for the logical variable of each
	// row.
	colStat []varStatus
	rowStat []varStatus
}

// Basis returns the final basis of the solve, or nil if the solution did
// not record one.
func (s *Solution) Basis() *Basis { return s.basis }

// snapshotBasis records the current basis of a simplex run.
func (s *simplex) snapshotBasis() *Basis {
	b := &Basis{
		colStat: make([]varStatus, s.n),
		rowStat: make([]varStatus, s.m),
	}
	copy(b.colStat, s.status[:s.n])
	copy(b.rowStat, s.status[s.n:])
	return b
}

// installBasis initializes the simplex state from a stored basis: statuses
// are restored (clamped to the current bounds), the basis is
// refactorized from the recorded basic set, and the basic values are
// recomputed. If the recorded basic set is singular or has the wrong size,
// installation fails and the caller falls back to the cold start.
func (s *simplex) installBasis(b *Basis) bool {
	if b == nil || len(b.colStat) != s.n || len(b.rowStat) != s.m {
		return false
	}
	nBasic := 0
	for _, st := range b.colStat {
		if st == basic {
			nBasic++
		}
	}
	for _, st := range b.rowStat {
		if st == basic {
			nBasic++
		}
	}
	if nBasic != s.m {
		return false
	}
	for v := 0; v < s.n+s.m; v++ {
		s.inBpos[v] = -1
	}
	pos := 0
	assign := func(v int, st varStatus) {
		s.status[v] = st
		switch st {
		case basic:
			s.basis[pos] = v
			s.inBpos[v] = pos
			pos++
		case nonbasicLower:
			if math.IsInf(s.lb[v], -1) {
				// The bound this status referred to no longer exists.
				s.xval[v], s.status[v] = initialValue(s.lb[v], s.ub[v])
				return
			}
			s.xval[v] = s.lb[v]
		case nonbasicUpper:
			if math.IsInf(s.ub[v], 1) {
				s.xval[v], s.status[v] = initialValue(s.lb[v], s.ub[v])
				return
			}
			s.xval[v] = s.ub[v]
		default:
			s.xval[v] = 0
		}
	}
	for j := 0; j < s.n; j++ {
		assign(j, b.colStat[j])
	}
	for i := 0; i < s.m; i++ {
		assign(s.n+i, b.rowStat[i])
	}
	if err := s.refactor(); err != nil {
		return false
	}
	return true
}

// Widened returns b for a problem whose columns cols get back the wider
// bounds lb/ub (indexed by column) they were fixed inside for b's solve,
// given that solve's point x: each listed column b holds nonbasic rests on
// the bound nearest x[j]. A column solved with lb == ub is recorded at its
// lower bound whatever its value, so without the re-seat a column fixed at
// its upper bound would drop to its lower one and move the point. The basic
// set is b's, so x stays the copy's basic solution: when x is feasible for
// the widened problem the copy is a primal-feasible start. b is not changed.
func (b *Basis) Widened(cols []int, x, lb, ub []float64) *Basis {
	w := &Basis{colStat: append([]varStatus(nil), b.colStat...), rowStat: b.rowStat}
	for _, j := range cols {
		if w.colStat[j] == basic {
			continue
		}
		w.colStat[j] = nonbasicLower
		if ub[j]-x[j] < x[j]-lb[j] {
			w.colStat[j] = nonbasicUpper
		}
	}
	return w
}
