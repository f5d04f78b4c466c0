// Package mip implements a branch-and-bound solver for mixed binary
// programs on top of the lp package.
//
// It supports problems whose integer variables are all binary, which covers
// both optimization models in the paper: the critical-scenario master
// problem (M) and the direct formulation (I). The solver offers best-first
// search with most-fractional branching, a pluggable rounding heuristic for
// fast incumbents, warm-start incumbents, and node/gap limits — the master
// problem in the decomposition only needs good feasible solutions quickly,
// not proofs of optimality.
package mip

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"flexile/internal/lp"
	"flexile/internal/obs"
)

// Problem is a binary MIP: the LP relaxation plus a set of columns that
// must take value 0 or 1.
type Problem struct {
	LP     *lp.Problem
	Binary []int
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means the incumbent was proven optimal (within the gap).
	Optimal Status = iota
	// Feasible means a limit was hit but an integer solution is available.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Bound is the best proven lower bound on the optimum.
	Bound float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Options tunes the search.
type Options struct {
	// MaxNodes bounds the number of explored nodes; 0 means 10000.
	MaxNodes int
	// RelGap stops the search when (incumbent − bound) ≤ RelGap·|incumbent|;
	// 0 means 1e-6.
	RelGap float64
	// Heuristic, if set, receives a fractional relaxation solution and may
	// return suggested 0/1 values for the binary columns (same order as
	// Problem.Binary). The solver completes the suggestion by fixing the
	// binaries and re-solving the LP.
	Heuristic func(frac []float64) []float64
	// WarmBinary, if set, is a 0/1 assignment of the binary columns tried
	// as an initial incumbent.
	WarmBinary []float64

	// maxIters caps every node LP's pivots; 0 leaves lp's automatic budget.
	// Only the package's tests set it.
	maxIters int
}

// The search's numeric thresholds. The relaxations are solved to
// lp.DefaultTol (1e-9), so a relaxation's values and objective carry noise
// of about that size; each threshold is placed against it.
const (
	// defaultMaxNodes is the node budget when Options.MaxNodes is zero.
	defaultMaxNodes = 10000
	// defaultRelGap is three decades above lp.DefaultTol: a node bound
	// that trails the incumbent by no more than the relaxation's own noise
	// (relative) never keeps the search open.
	defaultRelGap = 1e-6
	// intTol is three decades above lp.DefaultTol: a binary whose
	// relaxation value sits within the LP's feasibility slack of 0 or 1 is
	// integral, not a branching candidate.
	intTol = 1e-6
	// pruneSlack is the absolute slack beside RelGap·|incumbent|, which is
	// zero at a zero incumbent: three decades under lp.DefaultTol, so it
	// absorbs the rounding of a bound equal to the incumbent and nothing
	// the LP could resolve.
	pruneSlack = 1e-12
	// roundHalf splits a suggested 0/1 value (warm start, heuristic): above
	// it the binary is fixed at 1, otherwise at 0. It is the midpoint of
	// {0, 1}, independent of lp.DefaultTol.
	roundHalf = 0.5
)

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = defaultMaxNodes
	}
	if o.RelGap == 0 {
		o.RelGap = defaultRelGap
	}
	return o
}

type node struct {
	bound float64 // LP bound inherited from the parent; the root's is boxBound
	fixes []fix
	// basis warm-starts the node's LP from its parent's optimal basis —
	// the child differs only in one binary's bounds, so re-solving
	// typically takes a handful of pivots — and the root's from the warm
	// incumbent's.
	basis *lp.Basis
}

type fix struct {
	col int
	val float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound.
func Solve(p *Problem, opts Options) (*Solution, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx runs branch and bound under a context: the context is checked
// before every node and threaded into each LP relaxation solve, so
// cancellation or an expired deadline aborts mid-search with the context
// error. A nil ctx is treated as context.Background().
//
// The relaxation is compiled once and every node, warm start and heuristic
// completion re-solves it on one lp.BatchSolver with its own column bounds
// (bit-identical to solving the bound-edited Problem), so p.LP is only read.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	// mm accumulates this solve's counters (the node loop and the incumbent
	// closures increment it); one flush on exit covers every return path.
	// Inner LP relaxation solves report themselves through the same ctx.
	var mm obs.MIPMetrics
	if col := obs.From(ctx); col != nil {
		start := time.Now()
		defer func() {
			mm.Solves = 1
			mm.SolveNanos = time.Since(start).Nanoseconds()
			col.AddMIP(mm)
		}()
	}
	lpp := p.LP
	nb := len(p.Binary)
	if opts.WarmBinary != nil && len(opts.WarmBinary) != nb {
		return nil, fmt.Errorf("mip: warm start has %d values, want %d", len(opts.WarmBinary), nb)
	}
	bp, err := lpp.Compile()
	if err != nil {
		return nil, err
	}
	bs := bp.NewSolver()

	// origLB/origUB are the caller's column bounds; lb/ub are the bounds of
	// the relaxation being solved: the originals with the fixes on top.
	n := lpp.NumCols()
	origLB, origUB := make([]float64, n), make([]float64, n)
	for j := range origLB {
		origLB[j], origUB[j] = lpp.ColLB(j), lpp.ColUB(j)
	}
	lb, ub := append([]float64(nil), origLB...), append([]float64(nil), origUB...)
	relax := func(fixes []fix, basis *lp.Basis) (*lp.Solution, error) {
		for _, j := range p.Binary {
			lb[j], ub[j] = origLB[j], origUB[j]
		}
		for _, f := range fixes {
			lb[f.col], ub[f.col] = f.val, f.val
		}
		return bs.SolveCtx(ctx, lp.Variant{ColLB: lb, ColUB: ub}, lp.Options{StartBasis: basis, MaxIters: opts.maxIters})
	}

	sol := &Solution{Status: Infeasible, Objective: math.Inf(1), Bound: math.Inf(-1)}
	var best []float64
	// unsolved is the smallest inherited bound of a node whose LP stopped
	// at its iteration limit without a primal point: it cannot be branched,
	// and it keeps the search from claiming optimality.
	unsolved := math.Inf(1)
	// closed reports that a bound leaves no room below the incumbent; with no
	// incumbent the threshold is NaN and nothing is closed.
	closed := func(bound float64) bool {
		return bound >= sol.Objective-opts.RelGap*math.Abs(sol.Objective)-pruneSlack
	}

	// The root inherits the box bound of the caller's bounds — read from
	// origLB/origUB, never from lb/ub: once tryIncumbent has fixed the
	// binaries there, the box is the incumbent's own cost and the root is
	// pruned on a bound that does not hold (TestWarmStartNeverHurts).
	rootBound := boxBound(lpp, origLB, origUB)

	// tryIncumbent solves the LP with the binaries fixed at binVals rounded,
	// keeps its point if it beats the incumbent, and returns the solve when
	// it is optimal (nil otherwise).
	tryIncumbent := func(binVals []float64, basis *lp.Basis) *lp.Solution {
		fixes := make([]fix, nb)
		for k, j := range p.Binary {
			v := 0.0
			if binVals[k] > roundHalf {
				v = 1
			}
			fixes[k] = fix{j, v}
		}
		ls, err := relax(fixes, basis)
		if err != nil || ls.Status != lp.Optimal {
			return nil
		}
		if ls.Objective < sol.Objective {
			sol.Objective = ls.Objective
			best = append([]float64(nil), ls.X...)
			mm.IncumbentUpdates++
		}
		return ls
	}

	// A warm incumbent at the box bound closes the root when it is popped,
	// before its LP: the answer is the one a solved-then-pruned root gives.
	// Otherwise the root starts from the incumbent's basis with the binaries
	// freed: the incumbent is a feasible point of the root relaxation, so
	// the root opens primal feasible and phase 1 has nothing to do.
	root := &node{bound: rootBound}
	if opts.WarmBinary != nil {
		if ls := tryIncumbent(opts.WarmBinary, nil); ls != nil {
			root.basis = ls.Basis().Widened(p.Binary, ls.X, origLB, origUB)
		}
	}
	h := &nodeHeap{root}
	heap.Init(h)

	for h.Len() > 0 && sol.Nodes < opts.MaxNodes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mip: solve canceled: %w", err)
		}
		nd := heap.Pop(h).(*node)
		if closed(nd.bound) {
			// The global bound is the smallest remaining node bound.
			sol.Bound = math.Max(sol.Bound, nd.bound)
			mm.PrunedNodes++
			break
		}
		sol.Nodes++
		mm.Nodes++
		ls, err := relax(nd.fixes, nd.basis)
		if err != nil {
			return nil, err
		}
		switch ls.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			if len(nd.fixes) == 0 {
				sol.Status = Unbounded
				return sol, nil
			}
			continue
		case lp.IterLimit:
			// Treat as an unreliable bound: keep the node's inherited bound.
			if ls.X == nil {
				unsolved = math.Min(unsolved, nd.bound)
				continue
			}
		}
		nodeBound := ls.Objective
		if ls.Status != lp.Optimal {
			nodeBound = nd.bound
		}
		if closed(nodeBound) {
			mm.PrunedNodes++
			continue
		}

		// Find the most fractional binary.
		brCol, brFrac := -1, 0.0
		for _, j := range p.Binary {
			f := ls.X[j] - math.Floor(ls.X[j])
			fr := math.Min(f, 1-f)
			if fr > intTol && fr > brFrac {
				brFrac, brCol = fr, j
			}
		}
		if brCol < 0 {
			// Integer feasible.
			if ls.Objective < sol.Objective {
				sol.Objective = ls.Objective
				best = append([]float64(nil), ls.X...)
				mm.IncumbentUpdates++
			}
			continue
		}
		if opts.Heuristic != nil {
			frac := make([]float64, nb)
			for k, j := range p.Binary {
				frac[k] = ls.X[j]
			}
			mm.HeuristicCalls++
			if sug := opts.Heuristic(frac); sug != nil {
				tryIncumbent(sug, ls.Basis())
			}
		}
		// Branch: push the up child (the binary fixed to 1), then the down
		// child, whatever the relaxation leans toward. Both inherit the
		// node bound, and container/heap is not stable, so which of two
		// equal-bound nodes pops first is decided by the heap's sift
		// order, not by push order.
		up := &node{bound: nodeBound, basis: ls.Basis(), fixes: append(append([]fix(nil), nd.fixes...), fix{brCol, 1})}
		dn := &node{bound: nodeBound, basis: ls.Basis(), fixes: append(append([]fix(nil), nd.fixes...), fix{brCol, 0})}
		heap.Push(h, up)
		heap.Push(h, dn)
	}

	if best == nil {
		sol.Status = Infeasible
		return sol, nil
	}
	sol.X = best
	if h.Len() == 0 && math.IsInf(unsolved, 1) {
		sol.Bound = sol.Objective
		sol.Status = Optimal
	} else {
		// Remaining and unsolved nodes define the proven bound.
		low := math.Min(sol.Objective, unsolved)
		for _, nd := range *h {
			if nd.bound < low {
				low = nd.bound
			}
		}
		sol.Bound = low
		if closed(low) {
			sol.Status = Optimal
		} else {
			sol.Status = Feasible
		}
	}
	return sol, nil
}

// boxBound is Σⱼ min(cⱼ·lbⱼ, cⱼ·ubⱼ) over p's costs and the given column
// bounds: no point inside the bounds costs less, so it bounds the root
// before any LP is solved. It is −Inf when a costed column is unbounded in
// the direction its cost improves.
func boxBound(p *lp.Problem, lb, ub []float64) float64 {
	b := 0.0
	for j := range lb {
		c := p.Cost(j)
		if c == 0 {
			continue
		}
		t := math.Min(c*lb[j], c*ub[j])
		if math.IsInf(t, 0) {
			return math.Inf(-1)
		}
		b += t
	}
	return b
}

// RoundGreedyCover is a heuristic builder for covering problems of the form
// Σ_q p_q·z_q ≥ β per group: given per-column weights and group membership,
// it rounds a fractional z by greedily selecting, per group, the columns
// with the largest fractional value (ties: larger weight) until the group's
// coverage target is met.
func RoundGreedyCover(groups [][]int, weights []float64, targets []float64) func([]float64) []float64 {
	return func(frac []float64) []float64 {
		out := make([]float64, len(frac))
		for g, cols := range groups {
			order := append([]int(nil), cols...)
			sort.Slice(order, func(a, b int) bool {
				fa, fb := frac[order[a]], frac[order[b]]
				if fa != fb {
					return fa > fb
				}
				return weights[order[a]] > weights[order[b]]
			})
			covered := 0.0
			for _, k := range order {
				if covered >= targets[g] {
					break
				}
				out[k] = 1
				covered += weights[k]
			}
		}
		return out
	}
}
