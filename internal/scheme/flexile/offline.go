package flexile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"flexile/internal/eval"
	"flexile/internal/lp"
	"flexile/internal/mip"
	"flexile/internal/obs"
	"flexile/internal/par"
	"flexile/internal/te"
)

// Options tunes Flexile's offline decomposition (§4.2) and online phase.
type Options struct {
	// MaxIterations bounds the decomposition loop; 0 means 5 (the paper's
	// setting).
	MaxIterations int
	// Gamma, when ≥ 0, bounds every connected flow's loss in scenario q to
	// γ + optimal ScenLoss_q (§4.4). Negative disables the bound. Cut
	// sharing is disabled in this mode (scenario LPs stop sharing a dual
	// space once their variable bounds differ).
	Gamma float64
	// ScenFixedUse, when non-nil, is per-scenario per-edge bandwidth
	// already claimed outside this design (sequential multi-class design,
	// §4.4): capacities are reduced accordingly. Disables cut sharing.
	ScenFixedUse [][]float64
	// Workers is how many goroutines the scenario-parallel hot loops use
	// (per-scenario subproblem solves, the ScenLoss precompute, the
	// shared-cut separation scan). 0 means runtime.NumCPU(); 1 runs every
	// loop inline, exactly the sequential behavior. Results are identical
	// for every worker count — parallelism is a pure wall-clock win.
	Workers int
	// LP tunes all LP solves.
	LP lp.Options
	// Timeout bounds the wall-clock time of the whole offline solve;
	// 0 means unlimited. An expired deadline aborts the decomposition with
	// an error wrapping context.DeadlineExceeded — degraded mode never
	// swallows cancellation.
	Timeout time.Duration
	// FailFast restores the pre-degraded-mode behavior: the first scenario
	// or master failure aborts the whole solve with an error instead of
	// degrading and reporting.
	FailFast bool
	// FaultHook, when non-nil, runs before every scenario subproblem solve
	// with the scenario index and the 0-based attempt number; a non-nil
	// return (or a panic) is treated exactly like a failure of the real
	// solve. It exists for deterministic fault injection in tests
	// (internal/faultinject) and must decide independently of worker
	// identity or timing to preserve cross-worker-count determinism.
	FaultHook func(q, attempt int) error
}

// The decomposition's fixed settings.
const (
	// masterNodes bounds the branch-and-bound nodes per master solve: the
	// master only needs good feasible points, which the descent incumbent
	// and the greedy-cover rounding provide early.
	masterNodes = 120
	// sharedCutRounds is how many separation rounds materialize violated
	// shared cuts g^q_{q'} per master solve, and sharedCutLimit how many
	// rows one round may add.
	sharedCutRounds = 1
	sharedCutLimit  = 150
	// scenarioRetries is how many times a failed scenario subproblem is
	// re-solved under hardened LP settings (hardenLP) before the scenario is
	// skipped for the iteration. Only retryable failures —
	// lp.ErrSingularBasis, lp.ErrIterLimit — are retried; panics and
	// infeasibility skip directly.
	scenarioRetries = 1
)

// hammingLimit caps how many of the bits z entries may flip between master
// solutions (stabilization, appendix eq. 23).
func hammingLimit(bits int) int { return max(32, bits/16) }

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

// hardenLP derives the retry settings used after a retryable scenario
// failure: Bland's rule from the first pivot (guaranteed anti-cycling) and
// a 4× pivot budget when the caller set an explicit one.
func hardenLP(o lp.Options) lp.Options {
	o.Bland = true
	if o.MaxIters > 0 {
		o.MaxIters *= 4
	}
	return o
}

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
// that ended the decomposition early with the best incumbent.
type SolveReport struct {
	// Retried lists scenario solves that failed and then recovered under
	// hardened settings; Err is the failure that triggered the retry.
	Retried []ScenarioFault
	// Skipped lists scenario solves that exhausted their attempts; the
	// scenario keeps its previous solution (or a loss of 1 if it has
	// none) and is re-attempted on the next iteration.
	Skipped []ScenarioFault
	// ScenLossFallback lists scenarios whose optimal-ScenLoss precompute
	// failed; their bound falls back to 1 (no constraint in γ mode).
	ScenLossFallback []int
	// MasterFailures lists master-step errors ("iteration N: ..."); a
	// master failure ends the decomposition with the best incumbent.
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
// convergence history.
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
// record everything in the result's SolveReport; only Options.FailFast
// restores abort-on-first-failure. A nil ctx is context.Background().
func OfflineCtx(ctx context.Context, inst *te.Instance, opt Options) (*OfflineResult, error) {
	start := time.Now()
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	opt = opt.withDefaults()
	if nq == 0 {
		return nil, fmt.Errorf("flexile: instance has no scenarios")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	// Every solve below this point reports into a per-solve child collector
	// (its snapshot becomes SolveReport.Metrics); adds roll up into whatever
	// collector the caller installed (the CLIs' process-global one).
	col := obs.NewChild(obs.From(ctx))
	ctx = obs.With(ctx, col)

	// Connectivity of every flow in every scenario: z_fq is fixed to 0 for
	// disconnected flows (§4.2 warm start) and those bits never become
	// master variables.
	connected := make([][]bool, nf)
	for k := range inst.Classes {
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			connected[f] = make([]bool, nq)
			for q, s := range inst.Scenarios {
				connected[f][q] = inst.FlowConnected(k, i, s)
			}
		}
	}
	// Coverage feasibility: every demanded flow must be connected in
	// scenarios totalling at least β_k.
	for k := range inst.Classes {
		for i := range inst.Pairs {
			if inst.Demand[k][i] <= 0 {
				continue
			}
			f := inst.FlowID(k, i)
			mass := 0.0
			for q, s := range inst.Scenarios {
				if connected[f][q] {
					mass += s.Prob
				}
			}
			if mass < inst.Classes[k].Beta-1e-9 {
				return nil, fmt.Errorf("flexile: flow (%s,%d-%d) connected only %.6f of the time, below β=%v; lower the class target",
					inst.Classes[k].Name, inst.Pairs[i][0], inst.Pairs[i][1], mass, inst.Classes[k].Beta)
			}
		}
	}

	// Warm start (Proposition 1): critical wherever connected.
	z := NewCriticalSet(nf, nq)
	for f := 0; f < nf; f++ {
		for q := 0; q < nq; q++ {
			if connected[f][q] && inst.FlowDemand(f) > 0 {
				z.Set(f, q, true)
			}
		}
	}

	var report SolveReport

	// Per-scenario optimal ScenLoss over connected flows (for γ and for
	// reporting). Each solve builds its own LP, so the scenarios fan out
	// across the worker pool; results land at index q regardless of order.
	// A failed precompute degrades to the trivial bound ScenLoss = 1
	// (which in γ mode relaxes the scenario's loss cap to no constraint)
	// instead of aborting the whole solve.
	scenLossOpt := make([]float64, nq)
	endPre := col.Span("scenloss-precompute", 0, "scenarios", nq)
	preErrs := par.Collect(ctx, opt.Workers, nq, func(worker, q int) error {
		defer col.Span("scenloss", int64(worker)+1, "scenario", q)()
		var capUse []float64
		if opt.ScenFixedUse != nil {
			capUse = opt.ScenFixedUse[q]
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
		if opt.FailFast {
			return nil, fmt.Errorf("flexile: scenario %d loss precompute: %w", q, err)
		}
		scenLossOpt[q] = 1
		report.ScenLossFallback = append(report.ScenLossFallback, q)
	}
	var lossUB [][]float64 // [q][f], only for γ mode
	if opt.Gamma >= 0 {
		lossUB = make([][]float64, nq)
		for q := range inst.Scenarios {
			ub := make([]float64, nf)
			for f := 0; f < nf; f++ {
				if connected[f][q] {
					ub[f] = math.Min(1, opt.Gamma+scenLossOpt[q])
				} else {
					ub[f] = 1
				}
			}
			lossUB[q] = ub
		}
	}
	// Cut sharing requires every scenario's subproblem to differ only in
	// its right-hand side — per-scenario traffic matrices and the γ bound
	// both break that.
	shareCuts := opt.Gamma < 0 && inst.ScenDemand == nil && opt.ScenFixedUse == nil

	// The subproblem LP mutates row bounds in place on every solve, so
	// concurrent scenario solves need distinct instances: one lazily-built
	// LP per worker (a worker id maps to a single goroutine at a time).
	// Per-scenario-demand subproblems are keyed by scenario and only ever
	// used by the one worker holding that scenario, so a mutex around the
	// map lookup suffices.
	sps := make([]*subproblem, opt.Workers)
	var spByQMu sync.Mutex
	spByQ := make(map[int]*subproblem)
	solveSub := func(worker, q int, crit func(int) bool, alive []bool, ub []float64, lpOpts lp.Options) (*subSolution, error) {
		var capUse []float64
		if opt.ScenFixedUse != nil {
			capUse = opt.ScenFixedUse[q]
		}
		if dv := inst.ScenDemandVector(q); dv != nil {
			spByQMu.Lock()
			sq, ok := spByQ[q]
			if !ok {
				sq = newSubproblem(inst, dv, opt.LP)
				spByQ[q] = sq
			}
			spByQMu.Unlock()
			return sq.solveWith(ctx, lpOpts, q, crit, alive, ub, capUse)
		}
		if sps[worker] == nil {
			sps[worker] = newSubproblem(inst, nil, opt.LP)
		}
		return sps[worker].solveWith(ctx, lpOpts, q, crit, alive, ub, capUse)
	}
	// solveSubAttempts wraps one scenario solve in the retry policy: the
	// fault hook (if any) and the real solve run per attempt; a retryable
	// failure (singular basis, iteration limit) earns a re-solve under
	// hardened settings; anything else — and exhausted retries — fails the
	// item. firstErr preserves the failure that triggered a successful
	// retry so the report can say why. All decisions depend only on the
	// scenario and the attempt number, never on the worker id, so faulted
	// runs stay deterministic across worker counts.
	solveSubAttempts := func(worker, q int, crit func(int) bool, alive []bool, ub []float64) (*subSolution, int, error, error) {
		var firstErr error
		for attempt := 0; ; attempt++ {
			var sol *subSolution
			var err error
			if opt.FaultHook != nil {
				err = opt.FaultHook(q, attempt)
			}
			if err == nil {
				lpOpts := opt.LP
				if attempt > 0 {
					lpOpts = hardenLP(lpOpts)
				}
				sol, err = solveSub(worker, q, crit, alive, ub, lpOpts)
			}
			if err == nil {
				return sol, attempt + 1, firstErr, nil
			}
			if firstErr == nil {
				firstErr = err
			}
			if isCtxErr(err) || !retryableErr(err) || attempt >= scenarioRetries {
				return nil, attempt + 1, firstErr, err
			}
		}
	}
	aliveMask := make([][]bool, nq)
	aliveCap := make([][]float64, nq) // m_eq ∈ {0,1} per edge, for cut eval
	g := inst.Topo.G
	for q, s := range inst.Scenarios {
		aliveMask[q] = s.AliveMask(g.NumEdges())
		ac := make([]float64, g.NumEdges())
		for e := range ac {
			if aliveMask[q][e] {
				ac[e] = 1
			}
		}
		aliveCap[q] = ac
	}

	res := &OfflineResult{
		Critical:    z,
		ScenLossOpt: scenLossOpt,
	}
	type cache struct {
		col  *ScenarioColumn // snapshot of scenario q's column when last solved
		sol  *subSolution
		perf bool // perfect scenario: all connected flows lossless
	}
	caches := make([]cache, nq)
	// The cut pool dedups regenerated cuts (see cutpool.go); appends happen
	// in ascending scenario order, so the pool is identical for every
	// worker count.
	pool := newCutPool(cutKey, cutEqual)
	losses := make([][]float64, nf)
	for f := range losses {
		losses[f] = make([]float64, nq)
	}

	bestPenalty := math.Inf(1)
	var bestZ *CriticalSet
	var bestLosses [][]float64
	var bestPercLoss []float64

	for iter := 0; iter < opt.MaxIterations; iter++ {
		// Scenarios surviving the pruning rules this iteration. The solves
		// are independent by construction (z is read-only while they run),
		// so they fan out across the worker pool; collecting solutions by
		// index and appending cuts in ascending scenario order afterwards
		// keeps the cut pool — and hence the whole trajectory — bit-for-bit
		// identical to the sequential run.
		var pending []int
		for q := range inst.Scenarios {
			c := &caches[q]
			if c.perf {
				continue // pruned: scenario supports every connected flow losslessly
			}
			if c.col != nil && c.col.EqualColumn(z, q) {
				continue // pruned: critical set unchanged since last solve
			}
			pending = append(pending, q)
		}
		sols := make([]*subSolution, len(pending))
		attempts := make([]int, len(pending))
		retriedFrom := make([]error, len(pending))
		solveOne := func(worker, j int) error {
			q := pending[j]
			defer col.Span("scenario-solve", int64(worker)+1, "scenario", q, "iteration", iter)()
			defer col.ObserveSince(obs.LatScenarioSolve, time.Now())
			var ub []float64
			if lossUB != nil {
				ub = lossUB[q]
			}
			var sol *subSolution
			var att int
			var first, err error
			// Label the CPU samples of this scenario's solve so profiles
			// attribute time to (scenario, iteration).
			pprof.Do(ctx, pprof.Labels("solve", "scenario", "scenario", strconv.Itoa(q), "iteration", strconv.Itoa(iter)), func(context.Context) {
				sol, att, first, err = solveSubAttempts(worker, q, func(f int) bool { return z.Get(f, q) }, aliveMask[q], ub)
			})
			attempts[j] = att
			if err != nil {
				return err
			}
			sols[j] = sol
			retriedFrom[j] = first
			return nil
		}
		endBatch := col.Span("iteration", 0, "iter", iter, "pending", len(pending))
		itemErrs := par.Collect(ctx, opt.Workers, len(pending), solveOne)
		endBatch()
		// Classify failures in ascending scenario order (deterministic for
		// any worker count): cancellation aborts, everything else degrades
		// — the scenario keeps its previous cached solution (or, having
		// none, contributes the conservative loss of 1 below) and, since
		// its cached column is not refreshed, is re-attempted next
		// iteration.
		for j, q := range pending {
			err := itemErrs[j]
			if err == nil {
				if retriedFrom[j] != nil {
					report.Retried = append(report.Retried, ScenarioFault{
						Scenario: q, Iteration: iter, Attempts: attempts[j], Err: retriedFrom[j].Error(),
					})
				}
				continue
			}
			if isCtxErr(err) {
				return nil, fmt.Errorf("flexile: offline solve canceled: %w", err)
			}
			if opt.FailFast {
				return nil, err
			}
			// A recovered panic carries attempt count 0 in attempts[j] only
			// if it fired before the store; report at least one attempt.
			att := attempts[j]
			if att == 0 {
				att = 1
			}
			report.Skipped = append(report.Skipped, ScenarioFault{
				Scenario: q, Iteration: iter, Attempts: att, Err: err.Error(),
			})
		}
		for j, q := range pending {
			sol := sols[j]
			if sol == nil {
				continue // skipped this iteration
			}
			c := &caches[q]
			res.SubproblemSolves++
			c.sol = sol
			c.col = z.CloneScenario(q)
			pool.add(sol.cut)
			// A scenario is perfect when, with every connected flow marked
			// critical (the warm-start state), the optimum is zero.
			if iter == 0 && sol.optval <= 1e-9 {
				c.perf = true
			}
		}
		// Assemble the loss matrix from the cached subproblem solutions.
		for q := range inst.Scenarios {
			c := &caches[q]
			for f := 0; f < nf; f++ {
				switch {
				case inst.FlowDemand(f) <= 0:
					losses[f][q] = 0
				case c.perf:
					if connected[f][q] {
						losses[f][q] = 0
					} else {
						losses[f][q] = 1
					}
				case c.sol != nil:
					if connected[f][q] {
						losses[f][q] = c.sol.loss[f]
					} else {
						losses[f][q] = 1
					}
				default:
					losses[f][q] = 1
				}
			}
		}
		percs := eval.PercLossAll(inst, losses)
		penalty := 0.0
		for k, pl := range percs {
			penalty += inst.Classes[k].Weight * pl
		}
		res.IterPercLoss = append(res.IterPercLoss, percs)
		res.IterPenalty = append(res.IterPenalty, penalty)
		res.Iterations = iter + 1
		if penalty < bestPenalty-1e-12 {
			bestPenalty = penalty
			bestZ = z.Clone()
			bestLosses = cloneMatrix(losses)
			bestPercLoss = append([]float64(nil), percs...)
		}
		if penalty <= 1e-9 || iter == opt.MaxIterations-1 {
			break
		}
		// Master step: propose new critical scenarios. A master failure is
		// not fatal in degraded mode: the decomposition ends early and the
		// best incumbent found so far is returned.
		var nz *CriticalSet
		var err error
		cuts := pool.cuts
		endMaster := col.Span("master-solve", 0, "iteration", iter, "cuts", len(cuts))
		pprof.Do(ctx, pprof.Labels("solve", "master", "iteration", strconv.Itoa(iter)), func(context.Context) {
			nz, err = solveMaster(ctx, inst, connected, cuts, z, aliveCap, opt, shareCuts)
		})
		endMaster()
		if err != nil {
			if isCtxErr(err) {
				return nil, fmt.Errorf("flexile: offline solve canceled: %w", err)
			}
			if opt.FailFast {
				return nil, err
			}
			report.MasterFailures = append(report.MasterFailures, fmt.Sprintf("iteration %d: %v", iter, err))
			break
		}
		if nz.Equal(z) {
			break // converged: master repeats the proposal
		}
		z = nz
		res.Critical = z
	}

	res.Critical = bestZ
	res.SubLosses = bestLosses
	res.PercLoss = bestPercLoss
	res.Elapsed = time.Since(start)
	col.AddDecomp(obs.DecompMetrics{
		Solves:            1,
		Iterations:        int64(res.Iterations),
		ScenarioSolves:    int64(res.SubproblemSolves),
		ScenarioRetries:   int64(len(report.Retried)),
		ScenarioSkips:     int64(len(report.Skipped)),
		ScenLossFallbacks: int64(len(report.ScenLossFallback)),
		MasterFailures:    int64(len(report.MasterFailures)),
		CutsGenerated:     pool.generated,
		CutsDeduped:       pool.deduped,
	})
	report.Metrics = col.Snapshot()
	res.Report = report
	return res, nil
}

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// solveMaster builds and solves the master MIP (M): minimize Penalty
// subject to per-flow coverage (3), the pooled Benders cuts (19), and the
// hamming-distance stabilization (23), with z binary.
func solveMaster(ctx context.Context, inst *te.Instance, connected [][]bool, cuts []*cut, zPrev *CriticalSet, aliveCap [][]float64, opt Options, shareCuts bool) (*CriticalSet, error) {
	mcol := obs.From(ctx)
	var mm obs.DecompMetrics
	defer func() { mcol.AddDecomp(mm) }()
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	hamming := hammingLimit(nf * nq)
	p := lp.NewProblem()
	pen := p.AddCol("penalty", 0, lp.Inf, 1)

	// z columns exist only for (connected, demanded) combinations.
	zcol := make([][]int, nf)
	var binaries []int
	var binFlow, binScen []int // parallel metadata for each binary
	for f := 0; f < nf; f++ {
		zcol[f] = make([]int, nq)
		for q := 0; q < nq; q++ {
			zcol[f][q] = -1
		}
		if inst.FlowDemand(f) <= 0 {
			continue
		}
		for q := 0; q < nq; q++ {
			if !connected[f][q] {
				continue
			}
			col := p.AddCol(fmt.Sprintf("z[%d,%d]", f, q), 0, 1, 0)
			zcol[f][q] = col
			binaries = append(binaries, col)
			binFlow = append(binFlow, f)
			binScen = append(binScen, q)
		}
	}
	// Coverage rows (3).
	for k := range inst.Classes {
		for i := range inst.Pairs {
			if inst.Demand[k][i] <= 0 {
				continue
			}
			f := inst.FlowID(k, i)
			var es []lp.Entry
			for q, s := range inst.Scenarios {
				if zcol[f][q] >= 0 {
					es = append(es, lp.Entry{Col: zcol[f][q], Coef: s.Prob})
				}
			}
			p.AddGE(fmt.Sprintf("cov[%d]", f), inst.Classes[k].Beta-1e-9, es...)
		}
	}
	// Hamming stabilization (23) against zPrev.
	{
		var es []lp.Entry
		base := 0.0
		for b, col := range binaries {
			if zPrev.Get(binFlow[b], binScen[b]) {
				es = append(es, lp.Entry{Col: col, Coef: -1})
				base++
			} else {
				es = append(es, lp.Entry{Col: col, Coef: 1})
			}
		}
		p.AddLE("hamming", float64(hamming)-base, es...)
	}
	// Cut rows. Native cuts always; shared cuts via separation below.
	addCutRow := func(ct *cut, q int) {
		es := []lp.Entry{{Col: pen, Coef: 1}}
		rhs := ct.C
		for f, y := range ct.yAlpha {
			if y == 0 {
				continue
			}
			if zcol[f][q] >= 0 {
				es = append(es, lp.Entry{Col: zcol[f][q], Coef: -y})
				rhs -= y
			} else {
				rhs -= y // z fixed at 0 → contributes −y
			}
		}
		for e, cc := range ct.capCoef {
			if cc != 0 && aliveCap[q][e] > 0 {
				rhs += cc * aliveCap[q][e]
			}
		}
		p.AddGE(fmt.Sprintf("cut[%d@%d]", ct.nativeQ, q), rhs, es...)
	}
	for _, ct := range cuts {
		addCutRow(ct, ct.nativeQ)
	}

	// Rounding heuristic for the MIP: per flow, greedily pick the
	// highest-z̃ scenarios until β is covered.
	groups := map[int][]int{}
	weights := make([]float64, len(binaries))
	for b := range binaries {
		groups[binFlow[b]] = append(groups[binFlow[b]], b)
		weights[b] = inst.Scenarios[binScen[b]].Prob
	}
	var groupList [][]int
	var targets []float64
	for f := 0; f < nf; f++ {
		if g, ok := groups[f]; ok {
			groupList = append(groupList, g)
			k, _ := inst.FlowOf(f)
			targets = append(targets, inst.Classes[k].Beta)
		}
	}
	// The greedy-cover rounding is strong but each invocation costs an LP
	// solve inside the MIP; cap how often it runs per master solve.
	baseHeuristic := mip.RoundGreedyCover(groupList, weights, targets)
	heurCalls := 0
	heuristic := func(frac []float64) []float64 {
		if heurCalls >= 3 {
			return nil
		}
		heurCalls++
		return baseHeuristic(frac)
	}

	// Cut-guided greedy descent: starting from zPrev, repeatedly find the
	// binding cut (the scenario whose dual bound dominates the penalty)
	// and un-mark the critical flow with the largest dual there, as long
	// as the flow's remaining critical mass still covers β and the
	// hamming budget allows. This is exactly Flexile's core move — let a
	// flow off the hook in a bad scenario and cover its percentile
	// elsewhere — and it gives the MIP a strong incumbent that plain
	// branching rarely finds within its node budget.
	descent := zPrev.Clone()
	{
		spare := make([]float64, nf)
		for f := 0; f < nf; f++ {
			if inst.FlowDemand(f) <= 0 {
				continue
			}
			k, _ := inst.FlowOf(f)
			mass := 0.0
			for q, s := range inst.Scenarios {
				if descent.Get(f, q) {
					mass += s.Prob
				}
			}
			spare[f] = mass - inst.Classes[k].Beta
		}
		flips := 0
		for flips < hamming {
			// Binding cut at the current descent point.
			bestVal := 0.0
			var bestCut *cut
			for _, ct := range cuts {
				v := ct.value(func(f int) bool { return descent.Get(f, ct.nativeQ) }, aliveCap[ct.nativeQ])
				if v > bestVal {
					bestVal, bestCut = v, ct
				}
			}
			if bestCut == nil || bestVal <= 1e-9 {
				break
			}
			q := bestCut.nativeQ
			prob := inst.Scenarios[q].Prob
			cand, candY := -1, 0.0
			for f, y := range bestCut.yAlpha {
				if y > candY && descent.Get(f, q) && spare[f] >= prob-1e-12 {
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
	}

	warm := make([]float64, len(binaries))
	for b := range binaries {
		if descent.Get(binFlow[b], binScen[b]) {
			warm[b] = 1
		}
	}

	solveMIP := func() (*mip.Solution, error) {
		mm.MasterSolves++
		return mip.SolveCtx(ctx, &mip.Problem{LP: p, Binary: binaries}, mip.Options{
			MaxNodes:   masterNodes,
			RelGap:     1e-4,
			LP:         opt.LP,
			Heuristic:  heuristic,
			WarmBinary: warm,
		})
	}
	sol, err := solveMIP()
	if err != nil {
		return nil, err
	}
	if sol.Status == mip.Infeasible || sol.Status == mip.Unbounded {
		return nil, fmt.Errorf("flexile: master problem %v", sol.Status)
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
						c := zcol[f][q]
						return c >= 0 && sol.X[c] > 0.5
					}, aliveCap[q])
					if v > penVal+1e-7 {
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
			sol, err = solveMIP()
			if err != nil {
				return nil, err
			}
			if sol.Status == mip.Infeasible || sol.Status == mip.Unbounded {
				return nil, fmt.Errorf("flexile: master problem %v after separation", sol.Status)
			}
		}
	}
	nz := NewCriticalSet(nf, nq)
	for b, col := range binaries {
		if sol.X[col] > 0.5 {
			nz.Set(binFlow[b], binScen[b], true)
		}
	}
	return nz, nil
}
