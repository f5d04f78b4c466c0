package flexile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"flexile/internal/eval"
	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/obs"
	"flexile/internal/par"
	"flexile/internal/te"
)

// Options tunes Flexile's offline decomposition (§4.2) and online phase.
type Options struct {
	// MaxIterations bounds the decomposition loop; 0 means 5 (the paper's
	// setting).
	MaxIterations int
	// Gamma, when > 0, bounds every connected flow's loss in scenario q to
	// γ + optimal ScenLoss_q (§4.4); 0 or negative disables the bound.
	Gamma float64
	// Workers is how many goroutines the scenario-parallel hot loops use
	// (per-scenario subproblem solves and the ScenLoss precompute). 0 means
	// runtime.NumCPU(); 1 runs every loop inline, exactly the sequential
	// behavior. Results are identical for every worker count — parallelism
	// is a pure wall-clock win.
	Workers int
	// Timeout bounds the wall-clock time of the whole offline solve;
	// 0 means unlimited. An expired deadline aborts the decomposition with
	// an error wrapping context.DeadlineExceeded — degraded mode never
	// swallows cancellation.
	Timeout time.Duration
	// faultHook, when non-nil, runs before every scenario subproblem solve
	// with the scenario index and the 0-based attempt number; a non-nil
	// return (or a panic) is treated exactly like a failure of the real
	// solve. It exists for the package's deterministic fault-injection
	// tests (faultinject_test.go) and must decide independently of worker
	// identity or timing to preserve cross-worker-count determinism.
	faultHook func(q, attempt int) error
	// wrapMaster, when non-nil, replaces Offline's master with what it
	// returns for it. It exists for the package's MIP-master oracle
	// (oracle_test.go), which solves the paper's (M) beside the descent.
	wrapMaster func(*offlineMaster) master
}

// The decomposition's fixed settings.
const (
	// augMasterNodes bounds the branch-and-bound nodes per Augment master
	// solve.
	augMasterNodes = 200
	// scenarioRetries is how many times a failed scenario subproblem is
	// re-solved under hardened LP settings (hardenLP) before the scenario is
	// skipped for the iteration. Only retryable failures —
	// lp.ErrSingularBasis, lp.ErrIterLimit — are retried; panics and
	// infeasibility skip directly.
	scenarioRetries = 1
)

// The package's tolerances, each set against lp.DefaultTol (1e-9), the LP's
// feasibility and optimality tolerance: no LP value is trusted below it.
const (
	// coverSlack loosens every coverage test Σ_q p_q·z_fq ≥ β_k by
	// lp.DefaultTol, so β equal to a flow's connected mass passes in any
	// summation order.
	coverSlack = lp.DefaultTol
	// lossless is lp.DefaultTol, the noise floor of an LP objective: a
	// scenario optimum, a penalty or a cut value at or below it is zero.
	lossless = lp.DefaultTol
	// improveEps, lp.DefaultTol/1000, is the penalty drop a new best
	// iterate needs: any real gain, but not summation-order noise.
	improveEps = lp.DefaultTol / 1000
	// spareSlack, lp.DefaultTol/1000, lets the descent release a scenario
	// its spare critical mass covers up to rounding; inside coverSlack, so
	// the release never breaks a coverage row.
	spareSlack = lp.DefaultTol / 1000
	// targetSlack, 100 × lp.DefaultTol, is how far Augment lets a
	// class's worst critical loss exceed its target: the noise in the cut
	// constants its master met the target with.
	targetSlack = 100 * lp.DefaultTol
	// zeroPercLoss, 1000 × lp.DefaultTol, is the PercLoss MaxZeroLossScale
	// counts as zero: its allocations come through te.MaxMin, whose frozen
	// flows may sink 1e-6 below their level.
	zeroPercLoss = 1000 * lp.DefaultTol
)

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 5
	}
	if o.Gamma == 0 {
		o.Gamma = -1 // Options{} disables the γ bound
	}
	o.Workers = par.Workers(o.Workers)
	return o
}

// hardenLP is the retry setting after a retryable scenario failure: Bland's
// rule (guaranteed anti-cycling) from the first pivot, and no start basis,
// so the retry runs from the logical basis.
var hardenLP = lp.Options{Bland: true}

// isCtxErr reports whether err stems from cancellation or deadline expiry.
// Such errors always abort the solve — they are the caller's intent, not a
// numerical accident to degrade around.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// retryableErr reports whether a scenario failure is worth re-solving
// under hardened settings.
func retryableErr(err error) bool {
	return errors.Is(err, lp.ErrSingularBasis) || errors.Is(err, lp.ErrIterLimit)
}

// ScenarioFault records one scenario subproblem failure event.
type ScenarioFault struct {
	// Scenario is the failing scenario's index.
	Scenario int
	// Iteration is the decomposition iteration the failure occurred in.
	Iteration int
	// Attempts is how many solve attempts were made (1 + retries).
	Attempts int
	// Err is the (final) failure, stringified for stable reporting.
	Err string
}

// SolveReport is the structured degraded-mode account of one offline
// solve: which scenarios needed retries, which were skipped outright (and
// so contributed a conservative loss of 1 until re-solved), which ScenLoss
// precomputes fell back to the trivial bound, and any master-step failures
// (Augment's; Offline's descent cannot fail) that ended the decomposition
// early.
type SolveReport struct {
	// Retried lists scenario solves that failed and then recovered under
	// hardened settings; Err is the failure that triggered the retry.
	Retried []ScenarioFault
	// Skipped lists scenario solves that exhausted their attempts; the
	// scenario keeps its previous solution (or a loss of 1 if it has
	// none; always 1 for Augment) and is re-attempted on the next
	// iteration.
	Skipped []ScenarioFault
	// ScenLossFallback lists scenarios whose optimal-ScenLoss precompute
	// failed; their bound falls back to 1 (no constraint in γ mode).
	ScenLossFallback []int
	// MasterFailures lists master-step errors ("iteration N: ..."); a
	// master failure ends the decomposition early. Only Augment's δ master,
	// a MIP, can fail; Offline's descent never does.
	MasterFailures []string
	// Metrics is the solve's observability snapshot: every LP/MIP/pool/
	// decomposition counter accumulated during this offline solve. Its
	// Canonical() projection is bit-identical across worker counts.
	Metrics obs.SolveMetrics
}

// Degraded reports whether any fault was recorded.
func (r *SolveReport) Degraded() bool {
	return len(r.Retried) > 0 || len(r.Skipped) > 0 ||
		len(r.ScenLossFallback) > 0 || len(r.MasterFailures) > 0
}

// OfflineResult is the output of the offline phase: which scenarios are
// critical for each flow, the achieved per-class PercLoss, and per-iteration
// convergence history. The critical set is the best iterate of the
// cut-guided descent; no lower bound on the penalty is proven.
type OfflineResult struct {
	// Critical is the flow×scenario bitmap of critical scenarios.
	Critical *CriticalSet
	// PercLoss[k] is the realized β_k-percentile loss of class k under the
	// final subproblem routings (post-analysis).
	PercLoss []float64
	// ScenLossOpt[q] is the optimal ScenLoss of scenario q over connected
	// flows (used by the γ generalization and by loss-penalty analyses).
	ScenLossOpt []float64
	// SubLosses[f][q] are the flow losses from the final subproblem
	// routings.
	SubLosses [][]float64
	// IterPercLoss[it][k] is the per-class PercLoss after iteration it.
	IterPercLoss [][]float64
	// IterPenalty[it] is Σ_k w_k·PercLoss_k after iteration it.
	IterPenalty []float64
	// Iterations is the number of decomposition iterations run.
	Iterations int
	// SubproblemSolves counts how many scenario LPs were actually solved
	// (pruning keeps this well below iterations × scenarios).
	SubproblemSolves int
	// Elapsed is the wall-clock offline time.
	Elapsed time.Duration
	// Report is the degraded-mode account: retried and skipped scenarios,
	// ScenLoss fallbacks, master failures. Report.Degraded() is false for
	// a clean solve.
	Report SolveReport
}

// Offline runs Flexile's decomposition: identify the critical scenarios of
// every flow so that, in each class, scenarios covering probability β_k
// give each flow loss at most PercLoss_k, minimizing Σ_k w_k·PercLoss_k.
func Offline(inst *te.Instance, opt Options) (*OfflineResult, error) {
	return OfflineCtx(context.Background(), inst, opt)
}

// OfflineCtx is Offline under a context. Cancellation (or Options.Timeout,
// whichever expires first) aborts the decomposition — including any LP solve
// in flight — with an error wrapping the context error. All other failures
// go through the degraded-mode policy: retry retryable scenario failures
// under hardened settings, then skip the scenario for the iteration, and
// record everything in the result's SolveReport. A nil ctx is
// context.Background().
func OfflineCtx(ctx context.Context, inst *te.Instance, opt Options) (*OfflineResult, error) {
	return offline(ctx, inst, opt, nil)
}

// offline is OfflineCtx with fixedUse: when non-nil, fixedUse[q][e] is the
// bandwidth of edge e already claimed in scenario q outside this design
// (sequential multi-class design, §4.4), and capacities are reduced
// accordingly.
func offline(ctx context.Context, inst *te.Instance, opt Options, fixedUse [][]float64) (*OfflineResult, error) {
	start := time.Now()
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	opt = opt.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	d, ctx, err := newDecomp(ctx, inst, opt)
	if err != nil {
		return nil, err
	}

	// Per-scenario optimal ScenLoss over connected flows (for γ and for
	// reporting). Each solve builds its own LP, so the scenarios fan out
	// across the worker pool; results land at index q regardless of order.
	// A failed precompute degrades to the trivial bound ScenLoss = 1
	// (which in γ mode relaxes the scenario's loss cap to no constraint)
	// instead of aborting the whole solve.
	scenLossOpt := make([]float64, nq)
	endPre := d.col.Span("scenloss-precompute", 0, "scenarios", nq)
	preErrs := par.Collect(ctx, opt.Workers, nq, func(worker, q int) error {
		defer d.col.Span("scenloss", int64(worker)+1, "scenario", q)()
		var capUse []float64
		if fixedUse != nil {
			capUse = fixedUse[q]
		}
		zScale, _, _, err := te.MaxConcurrentScaleCtx(ctx, inst, inst.Scenarios[q], nil, inst.ScenDemandVector(q), capUse)
		if err != nil {
			return err
		}
		scenLossOpt[q] = math.Max(0, 1-math.Min(1, zScale))
		return nil
	})
	endPre()
	for q, err := range preErrs {
		if err == nil {
			continue
		}
		if isCtxErr(err) {
			return nil, fmt.Errorf("flexile: offline solve canceled: %w", err)
		}
		scenLossOpt[q] = 1
		d.report.ScenLossFallback = append(d.report.ScenLossFallback, q)
	}
	if opt.Gamma >= 0 {
		for q := range inst.Scenarios {
			d.lossUB[q] = make([]float64, nf)
			for f := range d.lossUB[q] {
				d.lossUB[q][f] = 1
				if d.connected[f][q] {
					d.lossUB[q][f] = math.Min(1, opt.Gamma+scenLossOpt[q])
				}
			}
		}
	}
	// The capacity vector is fixed: the topology's, less what higher
	// classes already claimed in the scenario (sequential design, §4.4).
	g := inst.Topo.G
	caps := make([][]float64, nq)
	for q := range caps {
		caps[q] = make([]float64, g.NumEdges())
		for e := range caps[q] {
			caps[q][e] = g.Edge(e).Capacity
			if fixedUse != nil {
				caps[q][e] = max(0, caps[q][e]-fixedUse[q][e])
			}
		}
	}

	res := &OfflineResult{ScenLossOpt: scenLossOpt}
	om := &offlineMaster{d: d, res: res, capv: caps, hamming: max(32, nf*nq/16), bestPenalty: math.Inf(1)}
	var m master = om
	if opt.wrapMaster != nil {
		m = opt.wrapMaster(om)
	}
	if err := d.run(ctx, m); err != nil {
		return nil, err
	}
	res.Iterations, res.SubproblemSolves, res.Report = d.iterations, d.solves, d.report
	res.Elapsed = time.Since(start)
	return res, nil
}

// decomp is one run of the Benders decomposition (§4.2), the loop Offline
// and Augment share: per-scenario subproblems solved in parallel under the
// retry/skip policy, a cut pool, and a master that decides when to
// stop and proposes the next point.
type decomp struct {
	inst *te.Instance
	opt  Options
	col  *obs.Collector
	// connected[f][q] says whether flow f survives scenario q; z_fq is fixed
	// to 0 where it does not (§4.2 warm start) and never becomes a master
	// variable.
	connected [][]bool
	alive     [][]bool // alive[q][e] is m_eq
	// lossUB[q], when non-nil, bounds every flow's loss in scenario q (the
	// γ variant).
	lossUB [][]float64
	// movingCaps marks Augment's run, whose capacities move with δ: a
	// failed scenario counts as loss 1 until solved again rather than keep a
	// solution taken at another point, as Offline's degraded mode does
	// (DESIGN.md §8).
	movingCaps bool

	report             SolveReport
	iterations, solves int
}

// master is what the two decompositions do differently: Offline's
// (offlineMaster) minimizes the penalty over the critical set z; Augment's
// (augMaster) minimizes the cost of added capacity over (z, δ).
type master interface {
	// caps is the capacity vector scenario q's subproblem sees at the
	// current point, before the scenario's failed links are zeroed.
	caps(q int) []float64
	// done reads the iteration's loss matrix at critical set z and reports
	// whether the decomposition may stop.
	done(z *CriticalSet, losses [][]float64) bool
	// next solves the master over the pooled cuts and returns the next
	// critical set, and true if the decomposition has converged instead.
	next(ctx context.Context, cuts []*cut, z *CriticalSet) (*CriticalSet, bool, error)
}

// seedsBefore reports whether scenario a seeds the first iteration's warm
// starts rather than b: the more probable, then the one with fewer failed
// links, then the lower ones.
func seedsBefore(a, b failure.Scenario) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	if len(a.Failed) != len(b.Failed) {
		return len(a.Failed) < len(b.Failed)
	}
	return slices.Compare(a.Failed, b.Failed) < 0
}

// newDecomp validates inst for a decomposition: it must have scenarios,
// and every demanded flow must be connected in scenarios totalling at
// least β_k, which neither a critical set nor added capacity can change.
// The returned context carries the run's child collector, whose snapshot
// becomes SolveReport.Metrics; adds roll up into whatever collector the
// caller installed (the CLIs' process-global one).
func newDecomp(ctx context.Context, inst *te.Instance, opt Options) (*decomp, context.Context, error) {
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	if nq == 0 {
		return nil, nil, fmt.Errorf("flexile: instance has no scenarios")
	}
	d := &decomp{inst: inst, opt: opt, col: obs.NewChild(obs.From(ctx)),
		connected: make([][]bool, nf), alive: make([][]bool, nq), lossUB: make([][]float64, nq)}
	for f := range d.connected {
		k, i := inst.FlowOf(f)
		d.connected[f] = make([]bool, nq)
		mass := 0.0
		for q, s := range inst.Scenarios {
			if d.connected[f][q] = inst.FlowConnected(k, i, s); d.connected[f][q] {
				mass += s.Prob
			}
		}
		if cls := inst.Classes[k]; inst.Demand[k][i] > 0 && mass < cls.Beta-coverSlack {
			return nil, nil, fmt.Errorf("flexile: flow (%s,%d-%d) connected only %.6f of the time, below β=%v; lower the class target (added capacity creates no links)",
				cls.Name, inst.Pairs[i][0], inst.Pairs[i][1], mass, cls.Beta)
		}
	}
	for q, s := range inst.Scenarios {
		d.alive[q] = s.AliveMask(inst.Topo.G.NumEdges())
	}
	return d, obs.With(ctx, d.col), nil
}

// run iterates from the warm start until m stops it or opt.MaxIterations
// runs out, then records the run's counters.
func (d *decomp) run(ctx context.Context, m master) error {
	inst, opt, col := d.inst, d.opt, d.col
	nf, nq := inst.NumFlows(), len(inst.Scenarios)

	// Warm start (Proposition 1): critical wherever connected.
	z := NewCriticalSet(nf, nq)
	for f, row := range d.connected {
		for q, c := range row {
			z.Set(f, q, c && inst.FlowDemand(f) > 0)
		}
	}

	// The subproblem LP mutates row bounds in place on every solve, so
	// concurrent scenario solves need distinct instances: one lazily-built
	// LP per worker (a worker id maps to a single goroutine at a time).
	// Per-scenario-demand subproblems are kept per scenario, and a scenario
	// is held by one worker at a time, so neither slice needs a lock.
	sps := make([]*subproblem, opt.Workers)
	spByQ := make([]*subproblem, nq)
	solveSub := func(worker, q int, crit func(int) bool, lpOpts lp.Options) (*subSolution, error) {
		dv := inst.ScenDemandVector(q)
		sp := &sps[worker]
		if dv != nil {
			sp = &spByQ[q]
		}
		if *sp == nil {
			*sp = newSubproblem(inst, dv)
		}
		return (*sp).solve(ctx, lpOpts, q, crit, d.alive[q], d.lossUB[q], m.caps(q))
	}
	// outcome is one scenario's pass through the retry policy: its
	// solution (nil if every attempt failed), how many attempts it took, and
	// the failure that triggered a retry, so the report can say why.
	type outcome struct {
		sol      *subSolution
		attempts int
		firstErr error
	}
	// solveSubAttempts wraps one scenario solve in the retry policy: the
	// fault hook (if any) and the real solve run per attempt; a retryable
	// failure (singular basis, iteration limit) earns a re-solve under
	// hardened settings; anything else — and exhausted retries — fails the
	// item. The first attempt starts from the basis start (the dual
	// simplex), a hardened retry from the logical basis. All decisions
	// depend only on the scenario and the attempt number, never on the
	// worker id, so faulted runs stay deterministic across worker counts.
	solveSubAttempts := func(worker, q int, crit func(int) bool, start *lp.Basis) (outcome, error) {
		var out outcome
		for attempt := 0; ; attempt++ {
			out.attempts = attempt + 1
			var err error
			if opt.faultHook != nil {
				err = opt.faultHook(q, attempt)
			}
			if err == nil {
				lpOpts := lp.Options{StartBasis: start}
				if attempt > 0 {
					lpOpts = hardenLP
				}
				if out.sol, err = solveSub(worker, q, crit, lpOpts); err == nil {
					return out, nil
				}
			}
			if out.firstErr == nil {
				out.firstErr = err
			}
			if isCtxErr(err) || !retryableErr(err) || attempt >= scenarioRetries {
				return out, err
			}
		}
	}

	type cache struct {
		col  *ScenarioColumn // snapshot of scenario q's column when last solved
		caps []float64       // and the capacity vector it was solved at
		sol  *subSolution
	}
	caches := make([]cache, nq)
	// The cut pool: appends happen in ascending scenario order, so the pool
	// is identical for every worker count.
	var pool []*cut

	for iter := 0; iter < opt.MaxIterations; iter++ {
		// Scenarios surviving the pruning rule this iteration. The solves
		// are independent by construction (z is read-only while they run),
		// so they fan out across the worker pool; collecting solutions by
		// index and appending cuts in ascending scenario order afterwards
		// keeps the cut pool — and hence the whole trajectory — bit-for-bit
		// identical to the sequential run.
		var pending []int
		for q := range inst.Scenarios {
			c := &caches[q]
			if c.col != nil && c.col.EqualColumn(z, q) && slices.Equal(c.caps, m.caps(q)) {
				continue // pruned: critical set and capacities unchanged since last solve
			}
			pending = append(pending, q)
		}
		outs := make([]outcome, len(pending))
		// Each scenario starts from the optimal basis of its own last solve:
		// only right-hand sides moved since, so it is still dual feasible.
		// In the first iteration, when every scenario shares one LP, the
		// most probable pending scenario (ties: the fewer, then lower,
		// failed links) is solved alone and its basis seeds the rest. Either
		// start depends only on the scenario, not on the worker count or the
		// order the instance lists its scenarios in.
		var seed *lp.Basis
		solveOne := func(worker, j int) error {
			q := pending[j]
			defer col.Span("scenario-solve", int64(worker)+1, "scenario", q, "iteration", iter)()
			defer col.ObserveSince(obs.LatScenarioSolve, time.Now())
			start := seed
			if c := &caches[q]; c.sol != nil {
				start = c.sol.basis
			}
			var err error
			// Label the CPU samples of this scenario's solve so profiles
			// attribute time to (scenario, iteration).
			pprof.Do(ctx, pprof.Labels("solve", "scenario", "scenario", strconv.Itoa(q), "iteration", strconv.Itoa(iter)), func(context.Context) {
				outs[j], err = solveSubAttempts(worker, q, func(f int) bool { return z.Get(f, q) }, start)
			})
			return err
		}
		endBatch := col.Span("iteration", 0, "iter", iter, "pending", len(pending))
		// order is the solve order over pending, the seed first.
		order, first := make([]int, len(pending)), 0
		for j := range order {
			order[j] = j
		}
		if iter == 0 && inst.ScenDemand == nil && len(pending) > 1 {
			top := 0
			for j, q := range pending {
				if seedsBefore(inst.Scenarios[q], inst.Scenarios[pending[top]]) {
					top = j
				}
			}
			order[0], order[top] = top, 0
			first = 1
		}
		itemErrs := make([]error, len(pending))
		batch := func(from, to int) {
			errs := par.Collect(ctx, opt.Workers, to-from, func(worker, k int) error { return solveOne(worker, order[from+k]) })
			for k, err := range errs {
				itemErrs[order[from+k]] = err
			}
		}
		batch(0, first)
		if first > 0 && itemErrs[order[0]] == nil {
			seed = outs[order[0]].sol.basis
		}
		batch(first, len(pending))
		endBatch()
		// Take the outcomes in ascending scenario order (deterministic for
		// any worker count). Cancellation aborts; any other failure degrades
		// — the scenario keeps its previous cached solution (or, having none
		// or under movingCaps, contributes the conservative loss of 1 below)
		// and, since its cached column is not refreshed, is re-attempted
		// next iteration.
		for j, q := range pending {
			err, out := itemErrs[j], outs[j]
			if err != nil {
				if isCtxErr(err) {
					return fmt.Errorf("flexile: offline solve canceled: %w", err)
				}
				// A recovered panic leaves no outcome behind; report at least
				// one attempt.
				d.report.Skipped = append(d.report.Skipped, ScenarioFault{
					Scenario: q, Iteration: iter, Attempts: max(1, out.attempts), Err: err.Error(),
				})
				if d.movingCaps {
					caches[q] = cache{}
				}
				continue
			}
			if out.firstErr != nil {
				d.report.Retried = append(d.report.Retried, ScenarioFault{
					Scenario: q, Iteration: iter, Attempts: out.attempts, Err: out.firstErr.Error(),
				})
			}
			c := &caches[q]
			d.solves++
			c.sol = out.sol
			c.col = z.CloneScenario(q)
			c.caps = m.caps(q)
			pool = append(pool, out.sol.cut)
		}
		// Assemble the loss matrix from the cached subproblem solutions (a
		// fresh one per iteration, so the master may keep it).
		losses := make([][]float64, nf)
		for f := range losses {
			losses[f] = make([]float64, nq)
		}
		for q := range inst.Scenarios {
			c := &caches[q]
			for f := 0; f < nf; f++ {
				// A disconnected or unsolved flow loses everything.
				l := 1.0
				switch {
				case inst.FlowDemand(f) <= 0:
					l = 0
				case !d.connected[f][q]:
				case c.sol != nil:
					l = c.sol.loss[f]
				}
				losses[f][q] = l
			}
		}
		d.iterations = iter + 1
		if m.done(z, losses) || iter == opt.MaxIterations-1 {
			break
		}
		// Master step: propose the next point. A master failure is not
		// fatal in degraded mode: the decomposition ends early and the
		// master's stopping rule decides what the run produced.
		var nz *CriticalSet
		var converged bool
		var err error
		endMaster := col.Span("master-solve", 0, "iteration", iter, "cuts", len(pool))
		pprof.Do(ctx, pprof.Labels("solve", "master", "iteration", strconv.Itoa(iter)), func(context.Context) {
			nz, converged, err = m.next(ctx, pool, z)
		})
		endMaster()
		if err != nil {
			if isCtxErr(err) {
				return fmt.Errorf("flexile: offline solve canceled: %w", err)
			}
			d.report.MasterFailures = append(d.report.MasterFailures, fmt.Sprintf("iteration %d: %v", iter, err))
			break
		}
		if converged {
			break
		}
		z = nz
	}

	col.AddDecomp(obs.DecompMetrics{
		Solves:            1,
		Iterations:        int64(d.iterations),
		ScenarioSolves:    int64(d.solves),
		ScenarioRetries:   int64(len(d.report.Retried)),
		ScenarioSkips:     int64(len(d.report.Skipped)),
		ScenLossFallbacks: int64(len(d.report.ScenLossFallback)),
		MasterFailures:    int64(len(d.report.MasterFailures)),
		CutsGenerated:     int64(len(pool)),
	})
	d.report.Metrics = col.Snapshot()
	return nil
}

// zBlock is the critical-set block of a MIP master over z (Augment's, and
// the MIP-master oracle in oracle_test.go): one binary z_fq per
// demanded flow f and scenario q it is connected in, and per demanded flow
// the coverage row (3) Σ_q p_q·z_fq ≥ β_k.
type zBlock struct {
	col        [][]int // col[f][q] is z_fq's column; −1 where z_fq is fixed at 0
	bins       []int   // every z column, in (f, q) order
	flow, scen []int   // bins[b] is z_{flow[b], scen[b]}
}

func newZBlock(p *lp.Problem, d *decomp) *zBlock {
	inst := d.inst
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	zb := &zBlock{col: make([][]int, nf)}
	for f := 0; f < nf; f++ {
		zb.col[f] = make([]int, nq)
		for q := 0; q < nq; q++ {
			zb.col[f][q] = -1
		}
		if inst.FlowDemand(f) <= 0 {
			continue
		}
		for q := 0; q < nq; q++ {
			if !d.connected[f][q] {
				continue
			}
			zb.col[f][q] = p.AddCol(fmt.Sprintf("z[%d,%d]", f, q), 0, 1, 0)
			zb.bins = append(zb.bins, zb.col[f][q])
			zb.flow = append(zb.flow, f)
			zb.scen = append(zb.scen, q)
		}
	}
	for k := range inst.Classes {
		for i := range inst.Pairs {
			if inst.Demand[k][i] <= 0 {
				continue
			}
			f := inst.FlowID(k, i)
			var es []lp.Entry
			for q, s := range inst.Scenarios {
				if zb.col[f][q] >= 0 {
					es = append(es, lp.Entry{Col: zb.col[f][q], Coef: s.Prob})
				}
			}
			p.AddGE(fmt.Sprintf("cov[%d]", f), inst.Classes[k].Beta-coverSlack, es...)
		}
	}
	return zb
}

// warm is z as a MIP warm start over the block's binaries.
func (zb *zBlock) warm(z *CriticalSet) []float64 {
	w := make([]float64, len(zb.bins))
	for b := range zb.bins {
		if z.Get(zb.flow[b], zb.scen[b]) {
			w[b] = 1
		}
	}
	return w
}

// read is the critical set a master solution x selects.
func (zb *zBlock) read(x []float64, nq int) *CriticalSet {
	z := NewCriticalSet(len(zb.col), nq)
	for b, col := range zb.bins {
		if x[col] > 0.5 {
			z.Set(zb.flow[b], zb.scen[b], true)
		}
	}
	return z
}

// cutTerms adds cut ct's z terms at scenario q, scaled by sign, to a row's
// entries es and right-hand side rhs: every y_af ≠ 0 moves rhs by sign·y_af
// (from the constant in z_fq − 1), and z_fq gets coefficient sign·y_af
// unless it is fixed at 0.
func (zb *zBlock) cutTerms(ct *cut, q int, sign float64, es []lp.Entry, rhs float64) ([]lp.Entry, float64) {
	for f, y := range ct.yAlpha {
		if y == 0 {
			continue
		}
		sy := sign * y
		rhs += sy
		if c := zb.col[f][q]; c >= 0 {
			es = append(es, lp.Entry{Col: c, Coef: sy})
		}
	}
	return es, rhs
}

// offlineMaster is Offline's master: the paper's (M) minimizes the penalty
// subject to coverage (3), the pooled Benders cuts (19) and the
// hamming-distance stabilization (23), with z binary; this master descends
// along the cuts within (3) and (23) instead. It also keeps the best
// iterate, which is what Offline returns.
type offlineMaster struct {
	d    *decomp
	res  *OfflineResult
	capv [][]float64 // capv[q] is scenario q's fixed capacity vector
	// hamming is how many z bits one master step may flip (stabilization,
	// appendix eq. 23).
	hamming     int
	bestPenalty float64
}

func (m *offlineMaster) caps(q int) []float64 { return m.capv[q] }

// done records the iteration's PercLoss and penalty, keeps the best
// iterate, and stops once the penalty is zero.
func (m *offlineMaster) done(z *CriticalSet, losses [][]float64) bool {
	inst := m.d.inst
	percs := eval.PercLossAll(inst, losses)
	penalty := 0.0
	for k, pl := range percs {
		penalty += inst.Classes[k].Weight * pl
	}
	m.res.IterPercLoss = append(m.res.IterPercLoss, percs)
	m.res.IterPenalty = append(m.res.IterPenalty, penalty)
	if penalty < m.bestPenalty-improveEps {
		m.bestPenalty = penalty
		m.res.Critical = z.Clone()
		m.res.SubLosses = losses
		m.res.PercLoss = append([]float64(nil), percs...)
	}
	return penalty <= lossless
}

// next runs the cut-guided descent from zPrev: it stands in for solving
// (M), whose MIP returned the descent point on every measured design
// (DESIGN.md §2.2; oracle_test.go keeps that MIP and checks it still does).
// The decomposition has converged when the descent leaves zPrev unchanged.
func (m *offlineMaster) next(_ context.Context, cuts []*cut, zPrev *CriticalSet) (*CriticalSet, bool, error) {
	inst, d := m.d.inst, m.d
	nf := inst.NumFlows()
	// Repeatedly find the binding cut (the scenario whose dual bound
	// dominates the penalty) and un-mark the critical flow with the largest
	// dual there, as long as the flow's remaining critical mass still covers
	// β (coverage, eq. 3) and at most hamming bits have flipped
	// (stabilization, appendix eq. 23). This is exactly Flexile's core move —
	// let a flow off the hook in a bad scenario and cover its percentile
	// elsewhere.
	descent := zPrev.Clone()
	spare := make([]float64, nf)
	for f := 0; f < nf; f++ {
		if inst.FlowDemand(f) <= 0 {
			continue
		}
		k, _ := inst.FlowOf(f)
		mass := 0.0
		for q := range inst.Scenarios {
			if descent.Get(f, q) {
				mass += inst.Scenarios[q].Prob
			}
		}
		spare[f] = mass - inst.Classes[k].Beta
	}
	flips := 0
	for flips < m.hamming {
		// Binding cut at the current descent point.
		bestVal := 0.0
		var bestCut *cut
		for _, ct := range cuts {
			v := ct.value(func(f int) bool { return descent.Get(f, ct.nativeQ) }, d.alive[ct.nativeQ])
			if v > bestVal {
				bestVal, bestCut = v, ct
			}
		}
		if bestCut == nil || bestVal <= lossless {
			break
		}
		q := bestCut.nativeQ
		prob := inst.Scenarios[q].Prob
		cand, candY := -1, 0.0
		for f, y := range bestCut.yAlpha {
			if y > candY && descent.Get(f, q) && spare[f] >= prob-spareSlack {
				cand, candY = f, y
			}
		}
		if cand < 0 {
			break // no flow can be released without breaking coverage
		}
		descent.Set(cand, q, false)
		spare[cand] -= prob
		flips++
	}
	return descent, descent.Equal(zPrev), nil
}
