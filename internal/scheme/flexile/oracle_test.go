package flexile

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"flexile/internal/lp"
	"flexile/internal/mip"
	"flexile/internal/obs"
	"flexile/internal/par"
	"flexile/internal/te"
)

// The MIP master's settings, as Offline ran them before the descent alone
// replaced the MIP.
const (
	// masterNodes bounds the branch-and-bound nodes per master solve: the
	// descent incumbent is set before the first node.
	masterNodes = 40
	// sharedCutRounds is how many separation rounds materialize violated
	// shared cuts g^q_{q'} per master solve, and sharedCutLimit how many
	// rows one round may add.
	sharedCutRounds = 1
	sharedCutLimit  = 150
	// violSlack, 100 × lp.DefaultTol, is how far a shared cut must exceed
	// the incumbent's penalty to become a row: more than two LPs' noise.
	violSlack = 100 * lp.DefaultTol
)

// mipMaster solves (M) around zPrev as a node-limited MIP: minimize the
// penalty subject to coverage (3), the pooled Benders cuts (19), shared cuts
// g^q_{q'} (eq. 22) found by separation when shareCuts is set, and the
// hamming-distance stabilization (23), with z binary, warm-started at the
// descent point. It returns the MIP's critical set.
func mipMaster(ctx context.Context, m *offlineMaster, cuts []*cut, zPrev, descent *CriticalSet, shareCuts bool) (*CriticalSet, error) {
	mcol := obs.From(ctx)
	var mm obs.DecompMetrics
	defer func() { mcol.AddDecomp(mm) }()
	inst, d, opt := m.d.inst, m.d, m.d.opt
	nq := len(inst.Scenarios)
	p := lp.NewProblem()
	pen := p.AddCol("penalty", 0, lp.Inf, 1)
	zb := newZBlock(p, d)
	// Hamming stabilization (23) against zPrev: Σ_{zPrev=0} z − Σ_{zPrev=1} z
	// ≤ hamming − |zPrev|.
	prev := zb.warm(zPrev)
	hes := make([]lp.Entry, len(prev))
	base := 0.0
	for b, w := range prev {
		hes[b] = lp.Entry{Col: zb.bins[b], Coef: 1 - 2*w}
		base += w
	}
	p.AddLE("hamming", float64(m.hamming)-base, hes...)
	// Cut rows. Native cuts always; shared cuts via separation below.
	addCutRow := func(ct *cut, q int) {
		es, rhs := zb.cutTerms(ct, q, -1, []lp.Entry{{Col: pen, Coef: 1}}, ct.C)
		for e, cc := range ct.capCoef {
			if cc != 0 && d.alive[q][e] {
				rhs += cc
			}
		}
		p.AddGE(fmt.Sprintf("cut[%d@%d]", ct.nativeQ, q), rhs, es...)
	}
	for _, ct := range cuts {
		addCutRow(ct, ct.nativeQ)
	}

	warm := zb.warm(descent)
	solveMIP := func(stage string) (*mip.Solution, error) {
		mm.MasterSolves++
		sol, err := mip.SolveCtx(ctx, &mip.Problem{LP: p, Binary: zb.bins}, mip.Options{
			MaxNodes:   masterNodes,
			WarmBinary: warm,
		})
		if err == nil && sol.X == nil {
			err = fmt.Errorf("flexile: master problem %v%s", sol.Status, stage)
		}
		return sol, err
	}
	sol, err := solveMIP("")
	if err != nil {
		return nil, err
	}
	// Separation rounds: materialize the most violated shared cuts
	// g^{q0}_{q'} at the incumbent and re-solve.
	if shareCuts {
		type viol struct {
			ct *cut
			q  int
			v  float64
		}
		for round := 0; round < sharedCutRounds; round++ {
			// The cuts × nq scan only reads the incumbent, so it shards
			// across the worker pool by cut; flattening the per-cut hits in
			// cut order keeps the violated list — and the sort below —
			// independent of the worker count.
			penVal := sol.X[pen]
			perCut := make([][]viol, len(cuts))
			for _, serr := range par.Collect(ctx, opt.Workers, len(cuts), func(_, ci int) error {
				ct := cuts[ci]
				var hits []viol
				for q := 0; q < nq; q++ {
					if q == ct.nativeQ {
						continue
					}
					v := ct.value(func(f int) bool {
						c := zb.col[f][q]
						return c >= 0 && sol.X[c] > 0.5
					}, d.alive[q])
					if v > penVal+violSlack {
						hits = append(hits, viol{ct, q, v - penVal})
					}
				}
				perCut[ci] = hits
				return nil
			}) {
				if serr != nil {
					return nil, serr
				}
			}
			var violated []viol
			for _, hits := range perCut {
				violated = append(violated, hits...)
			}
			if len(violated) == 0 {
				break
			}
			sort.Slice(violated, func(a, b int) bool { return violated[a].v > violated[b].v })
			if len(violated) > sharedCutLimit {
				violated = violated[:sharedCutLimit]
			}
			mm.SharedCutRows += int64(len(violated))
			for _, vv := range violated {
				addCutRow(vv.ct, vv.q)
			}
			if sol, err = solveMIP(" after separation"); err != nil {
				return nil, err
			}
		}
	}
	return zb.read(sol.X, nq), nil
}

// oracleMaster is Offline's master with mipMaster solved beside it at
// every step. It records the steps at which the MIP, warm-started at the
// descent point, returns another critical set, and proposes the descent's
// point (as Offline does) or, with follow set, the MIP's (as Offline did
// before the descent replaced it).
type oracleMaster struct {
	*offlineMaster
	follow bool
	// shareCuts is the MIP master's rule for separating shared cuts: every
	// scenario's subproblem must differ only in its right-hand side, which
	// per-scenario traffic matrices and the γ bound both break. (The
	// sequential design's claimed capacities broke it too; the oracle does
	// not run there.)
	shareCuts bool
	metrics   *obs.Collector // the MIP's own counters, kept out of the run's
	steps     int
	diverged  []int // the 1-based steps whose MIP point is not the descent's
	errs      []error
}

func (o *oracleMaster) next(ctx context.Context, cuts []*cut, zPrev *CriticalSet) (*CriticalSet, bool, error) {
	descent, converged, err := o.offlineMaster.next(ctx, cuts, zPrev)
	if err != nil {
		return nil, false, err
	}
	o.steps++
	z, err := mipMaster(obs.With(ctx, o.metrics), o.offlineMaster, cuts, zPrev, descent, o.shareCuts)
	if err != nil {
		o.errs = append(o.errs, fmt.Errorf("step %d: %w", o.steps, err))
		return descent, converged, nil
	}
	if !z.Equal(descent) {
		o.diverged = append(o.diverged, o.steps)
	}
	if o.follow {
		return z, z.Equal(zPrev), nil
	}
	return descent, converged, nil
}

// checkMIPOracle runs Offline on inst with the MIP master beside the
// descent and checks that
//   - it ran wantSteps master steps, and the MIP returned the descent's
//     critical set at every one of them but the steps in wantDiverged;
//   - Offline driven by the MIP's points instead ends on the same critical
//     set and the same PercLoss bits as Offline itself.
func checkMIPOracle(t *testing.T, inst *te.Instance, opt Options, wantSteps int, wantDiverged []int) {
	t.Helper()
	plain, err := Offline(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, o, err := offlineBesideMIP(inst, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range o.errs {
		t.Error(err)
	}
	mm := o.metrics.Snapshot().MIP
	t.Logf("%d master steps, MIP %d solves, %d nodes, %d incumbent updates", o.steps, mm.Solves, mm.Nodes, mm.IncumbentUpdates)
	if o.steps != wantSteps {
		t.Errorf("%d master steps, want %d", o.steps, wantSteps)
	}
	if !slices.Equal(o.diverged, wantDiverged) {
		t.Errorf("the MIP master left the descent's point at steps %v, want %v", o.diverged, wantDiverged)
	}
	if !plain.Critical.Equal(res.Critical) || !reflect.DeepEqual(plain.IterPenalty, res.IterPenalty) {
		t.Errorf("solving the MIP beside the descent changed the design: penalties %v, without it %v", res.IterPenalty, plain.IterPenalty)
	}
	led, _, err := offlineBesideMIP(inst, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if !led.Critical.Equal(plain.Critical) || !reflect.DeepEqual(led.PercLoss, plain.PercLoss) {
		t.Errorf("the MIP master's design has PercLoss %v, the descent's %v", led.PercLoss, plain.PercLoss)
	}
}

// TestMIPMasterOracle: on the package fixtures, the node-limited MIP master
// Offline used to solve returns the cut-guided descent point at every
// decomposition step but one, so the descent alone is the master. The one
// is triangle-gamma's second step: the descent has converged, the MIP
// flips 4 bits to a point its cuts price lower, and the third iteration it
// buys solves two scenarios and returns to the same design. sprint meets its
// target at the warm start, so no master step runs there.
func TestMIPMasterOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inst     func(*testing.T) *te.Instance
		opt      Options
		steps    int
		diverged []int
	}{
		{"triangle", func(*testing.T) *te.Instance { return triangleInstance() }, Options{}, 1, nil},
		{"triangle-gamma", func(*testing.T) *te.Instance { return triangleInstance() }, Options{Gamma: 0.05}, 2, []int{2}},
		{"sprint", sprintInstance, Options{}, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { checkMIPOracle(t, tc.inst(t), tc.opt, tc.steps, tc.diverged) })
	}
}
