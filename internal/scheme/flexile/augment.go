package flexile

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"flexile/internal/lp"
	"flexile/internal/mip"
	"flexile/internal/obs"
	"flexile/internal/te"
)

// AugmentOptions configures capacity augmentation (§4.4 and the appendix):
// find the minimum-cost capacity additions δ_e such that every class can
// meet a given PercLoss target.
type AugmentOptions struct {
	// Target[k] is the PercLoss bound class k must meet; nil means zero
	// loss for every class.
	Target []float64
	// Cost[e] is the per-unit cost of adding capacity to edge e; nil means
	// uniform cost 1.
	Cost []float64
	// MaxAug[e] caps the augmentation per edge; nil means 10× the edge's
	// capacity.
	MaxAug []float64
	// MaxIterations bounds the decomposition loop; 0 means 8.
	MaxIterations int
}

// AugmentResult is the outcome of capacity augmentation.
type AugmentResult struct {
	// Delta[e] is the capacity added to edge e.
	Delta []float64
	// TotalCost is Σ_e cost_e·δ_e.
	TotalCost float64
	// Critical is the accompanying critical-scenario selection.
	Critical *CriticalSet
	// AchievedPercLoss[k] is the realized PercLoss with the augmentation.
	AchievedPercLoss []float64
	// Iterations is the number of decomposition rounds used.
	Iterations int
	// Report is the decomposition's degraded-mode account and metrics, as
	// in OfflineResult.
	Report SolveReport
}

// Augment computes a minimum-cost capacity augmentation meeting the
// per-class PercLoss targets. It is Offline's decomposition with another
// master: subproblem duals give cuts linear in both the critical-scenario
// indicators and the added capacities (appendix, eq. 21 with c_e replaced
// by c_e+δ_e), and the loop stops once every class's worst critical loss
// meets its target. When the targets are not met within MaxIterations, or
// a master solve fails, the error comes with a result holding only
// Iterations and Report.
func Augment(inst *te.Instance, opt AugmentOptions) (*AugmentResult, error) {
	return augment(context.Background(), inst, opt, Options{})
}

// augment is Augment under ctx, with opt's worker count and fault hook.
func augment(ctx context.Context, inst *te.Instance, aopt AugmentOptions, opt Options) (*AugmentResult, error) {
	opt.MaxIterations = cmp.Or(aopt.MaxIterations, 8)
	opt = opt.withDefaults()
	d, ctx, err := newDecomp(ctx, inst, opt)
	if err != nil {
		return nil, err
	}
	d.movingCaps = true
	g := inst.Topo.G
	a := &augMaster{d: d, target: aopt.Target, cost: aopt.Cost, maxAug: aopt.MaxAug}
	if a.target == nil {
		a.target = make([]float64, len(inst.Classes))
	}
	for e := 0; e < g.NumEdges(); e++ {
		if aopt.Cost == nil {
			a.cost = append(a.cost, 1)
		}
		if aopt.MaxAug == nil {
			a.maxAug = append(a.maxAug, 10*g.Edge(e).Capacity)
		}
	}
	a.setDelta(make([]float64, g.NumEdges()))
	if err := d.run(ctx, a); err != nil {
		return nil, err
	}
	res := a.res
	if res == nil {
		res = &AugmentResult{}
		err = fmt.Errorf("flexile: augmentation did not converge in %d iterations", d.iterations)
		if n := len(d.report.MasterFailures); n > 0 {
			err = fmt.Errorf("flexile: augmentation stopped at %s", d.report.MasterFailures[n-1])
		}
	}
	res.Iterations, res.Report = d.iterations, d.report
	return res, err
}

// augMaster is Augment's master: minimize Σ_e cost_e·δ_e over binary z
// (coverage per flow) and δ ∈ [0, maxAug], subject to every cut keeping
// the weighted subproblem value within the weighted target Σ_k w_k·target_k
// (exact for the common zero-loss target). It has no hamming row and no
// descent heuristic; the MIP starts from the previous z.
type augMaster struct {
	d                    *decomp
	target, cost, maxAug []float64
	delta, capv          []float64 // the current δ and c + δ
	res                  *AugmentResult
}

func (a *augMaster) setDelta(delta []float64) {
	g := a.d.inst.Topo.G
	a.delta = delta
	a.capv = make([]float64, len(delta))
	for e := range delta {
		a.capv[e] = g.Edge(e).Capacity + delta[e]
	}
}

func (a *augMaster) caps(int) []float64 { return a.capv }

// done stops once every class's worst loss over its critical (flow,
// scenario) pairs meets the class target, and records the result.
func (a *augMaster) done(z *CriticalSet, losses [][]float64) bool {
	inst := a.d.inst
	worst := make([]float64, len(inst.Classes))
	for f, row := range losses {
		k, _ := inst.FlowOf(f)
		for q, l := range row {
			if z.Get(f, q) && l > worst[k] {
				worst[k] = l
			}
		}
	}
	for k, w := range worst {
		if w > a.target[k]+targetSlack {
			return false
		}
	}
	total := 0.0
	for e, de := range a.delta {
		total += a.cost[e] * de
	}
	a.res = &AugmentResult{Delta: a.delta, TotalCost: total, Critical: z.Clone(), AchievedPercLoss: worst}
	return true
}

// next solves the master and moves to its (z, δ). It never reports
// convergence: only the targets stop Augment.
func (a *augMaster) next(ctx context.Context, cuts []*cut, zPrev *CriticalSet) (*CriticalSet, bool, error) {
	obs.From(ctx).AddDecomp(obs.DecompMetrics{MasterSolves: 1})
	inst, d := a.d.inst, a.d
	g := inst.Topo.G
	wTarget := 0.0
	for k := range inst.Classes {
		wTarget += inst.Classes[k].Weight * a.target[k]
	}
	p := lp.NewProblem()
	dcol := make([]int, g.NumEdges())
	for e := range dcol {
		dcol[e] = p.AddCol(fmt.Sprintf("delta[%d]", e), 0, a.maxAug[e], a.cost[e])
	}
	zb := newZBlock(p, d)
	// Cut rows: Σ_f y_af·z_fq + Σ_e (y_e·m_eq)·δ_e ≤
	//           T − C + Σ_f y_af − Σ_e y_e·c_e·m_eq.
	for ci, ct := range cuts {
		q := ct.nativeQ
		es, rhs := zb.cutTerms(ct, q, 1, nil, wTarget-ct.C)
		for e, y := range ct.yCap {
			if y == 0 || !d.alive[q][e] {
				continue
			}
			rhs -= y * g.Edge(e).Capacity
			es = append(es, lp.Entry{Col: dcol[e], Coef: y})
		}
		if len(es) == 0 {
			// A row without variables holds only if the master LP would
			// accept it at its own tolerance.
			if rhs < -lp.DefaultTol {
				return nil, false, fmt.Errorf("flexile: augmentation cut %d is unconditionally violated", ci)
			}
			continue
		}
		p.AddLE(fmt.Sprintf("cut[%d]", ci), rhs, es...)
	}
	sol, err := mip.SolveCtx(ctx, &mip.Problem{LP: p, Binary: zb.bins}, mip.Options{
		MaxNodes:   augMasterNodes,
		WarmBinary: zb.warm(zPrev),
	})
	if err != nil {
		return nil, false, err
	}
	if sol.X == nil { // infeasible, unbounded, or no incumbent within the node limit
		return nil, false, fmt.Errorf("flexile: augmentation master %v", sol.Status)
	}
	nd := make([]float64, g.NumEdges())
	for e := range nd {
		nd[e] = math.Max(0, sol.X[dcol[e]])
	}
	a.setDelta(nd)
	return zb.read(sol.X, len(inst.Scenarios)), false, nil
}
