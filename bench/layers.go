package main

import (
	"context"
	"sort"
	"time"

	"flexile"
	"flexile/internal/admit"
	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/obs"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/traffic"
)

// layerNames is every per-layer metric a traced run reports: the client's
// ungated operation metrics (opNames, over all operations of the traced
// run), then the layers. A workload fills in the ones its layers exercise;
// the rest read 0 on that workload (every workload prints every metric).
// BENCHMARK.json must declare exactly this set — TestMetricNamesMatchSpec
// checks it.
var layerNames = append(append([]string(nil), opNames...),
	// Instance construction: moves setup_s and nothing else.
	"topo.load_ms", "tunnels.select_ms", "traffic.gravity_ms", "failure.enumerate_ms",
	// scheme/flexile.
	"flexile.offline_ms", "flexile.iterations", "flexile.scenario_solves", "flexile.master_solves",
	"flexile.cuts_generated", "flexile.shared_cut_rows", "flexile.scenario_solve_ms_sum",
	"flexile.par_speedup", "flexile.unattributed_frac", "flexile.online_ms", "flexile.penalty",
	// te.
	"te.scalebatch_compile_ms", "te.scaleloss_ms", "te.alloc_build_ms",
	"te.maxmin_ms", "te.maxmin_lp_solves", "te.maxmin_pivots",
	// lp: counts of the workload's own solves, then probes on a reference LP.
	"lp.solves", "lp.pivots", "lp.phase1_pivots", "lp.degenerate_pivots", "lp.refactorizations",
	"lp.warm_starts", "lp.warm_start_rejected", "lp.solve_ms_sum", "lp.us_per_pivot",
	"lp.ref_rows", "lp.ref_cols", "lp.cold_solve_ms", "lp.compile_ms",
	"lp.cold_resolve_pivots", "lp.warm_resolve_pivots",
	// mip.
	"mip.solves", "mip.nodes", "mip.heuristic_calls", "mip.solve_ms_sum",
	// par.
	"par.pool_busy_ms", "par.pool_idle_frac", "par.gate_waits", "par.flight_shared",
	// serve.
	"serve.artifact_bytes", "serve.build_encode_ms", "serve.decode_ms", "serve.instantiate_ms",
	"serve.parse_ns", "serve.parse_batch_us",
	"serve.handler_hit_us", "serve.handler_miss_ms", "serve.handler_batch_us",
	"serve.stage.admit_us", "serve.stage.parse_us", "serve.stage.cache_us", "serve.stage.flight_us", "serve.stage.write_us",
	"serve.queue_wait_ms", "serve.recompute_ms", "serve.hit_ratio", "serve.hits", "serve.misses",
	"serve.deadline_shed", "serve.hit_p999_ms", "serve.miss_p50_ms",
	// admit.
	"admit.quota_allow_ns", "admit.breaker_allow_ns", "admit.parse_deadline_ns",
	// net/http: the part of a hit no change to serve can reach.
	"http.overhead_us",
	// obs.
	"obs.trace_overhead_frac", "obs.collector_overhead_frac",
	// load: generator health, qualifies serve-open.
	"load.plan_build_ms", "load.gen_lag_p99_ms", "load.shed_frac",
	"load.r25_within_limit_frac", "load.r50_within_limit_frac", "load.r100_within_limit_frac",
	"load.max_rate_qps",
)

func newLayerValues() map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		m[n] = 0
	}
	return m
}

// constructionProbes times the calls that turn a topology name into an
// instance, one layer at a time, on a throwaway instance.
func constructionProbes(rec *recorder, s instanceSpec, out map[string]float64) error {
	var tp *flexile.Topology
	var err error
	out["topo.load_ms"] = rec.timed("topo.Load", -1, 0, func() { tp, err = topo.Load(s.topo) })
	if err != nil {
		return err
	}
	var inst *flexile.Instance
	out["tunnels.select_ms"] = rec.timed("te.NewInstance", -1, 0, func() {
		if s.twoClass {
			inst = flexile.NewTwoClassInstance(tp)
		} else {
			inst = flexile.NewSingleClassInstance(tp, 3)
		}
	})
	out["traffic.gravity_ms"] = rec.timed("traffic.ApplyGravity", -1, 0, func() {
		err = traffic.ApplyGravity(inst, traffic.GravityOptions{Seed: 1})
	})
	if err != nil {
		return err
	}
	out["failure.enumerate_ms"] = rec.timed("failure.Enumerate", -1, 0, func() {
		failure.Enumerate(failure.WeibullProbs(tp.G, 2, failure.WeibullParams{}), 1e-5)
	})
	return nil
}

// referenceLP builds the no-failure allocation LP of the instance (one
// column per tunnel, one capacity row per link) and gives it an objective —
// maximise carried demand, each flow capped at its demand — so that it is a
// real simplex problem of the workload's own shape.
func referenceLP(inst *flexile.Instance) *te.Alloc {
	a := te.NewAlloc(inst, te.NoFailure(), nil, nil)
	for k := range inst.Classes {
		for i := range inst.Pairs {
			es := a.FlowEntries(k, i)
			if len(es) == 0 {
				continue
			}
			a.LP.AddLE("", inst.Demand[k][i], es...)
			for _, e := range es {
				a.LP.SetCost(e.Col, -1)
			}
		}
	}
	return a
}

// lpProbes measures the LP layer alone on the reference LP: a cold solve,
// the compile step of the batched path, and a one-scenario bound variant
// re-solved without and with the base solution's basis.
func lpProbes(rec *recorder, inst *flexile.Instance, out map[string]float64) error {
	var a *te.Alloc
	out["te.alloc_build_ms"] = rec.timed("te.NewAlloc", -1, 0, func() { a = referenceLP(inst) })
	out["lp.ref_rows"] = float64(a.LP.NumRows())
	out["lp.ref_cols"] = float64(a.LP.NumCols())

	// The collector-overhead probe rides on the cold solves: the same LP
	// with and without a collector on the context, alternating.
	var base *lp.Solution
	var err error
	var bare, observed []float64
	col := obs.New()
	// Enough pairs for ~150 ms of solving: a small LP solves in a few
	// milliseconds and two samples of that are noise.
	reps := 2
	for i := 0; i < reps && err == nil; i++ {
		bare = append(bare, rec.timed("lp.Problem.SolveOpts", -1, i, func() {
			base, err = a.LP.SolveOpts(lp.Options{})
		}))
		if err != nil {
			break
		}
		if i == 0 && bare[0] > 0 {
			reps = max(2, min(20, int(75/bare[0])))
		}
		observed = append(observed, rec.timed("lp.Problem.SolveCtx+collector", -1, i, func() {
			_, err = a.LP.SolveCtx(obs.With(context.Background(), col), lp.Options{})
		}))
	}
	if err != nil {
		return err
	}
	out["lp.cold_solve_ms"] = median(bare)
	out["obs.collector_overhead_frac"] = median(observed)/median(bare) - 1

	var bp *lp.BatchProblem
	out["lp.compile_ms"] = rec.timed("lp.Problem.Compile", -1, 0, func() { bp, err = a.LP.Compile() })
	if err != nil {
		return err
	}
	// The variant: the instance's first failure scenario, expressed as
	// upper bound 0 on every tunnel it kills.
	ub := make([]float64, a.LP.NumCols())
	for j := range ub {
		ub[j] = lp.Inf
	}
	for _, scen := range inst.Scenarios {
		if len(scen.Failed) == 0 {
			continue
		}
		alive := scen.Alive()
		for k := range inst.Classes {
			for i := range inst.Pairs {
				for t, p := range inst.Tunnels[k][i] {
					if c := a.XVar(k, i, t); c >= 0 && !p.Alive(alive) {
						ub[c] = 0
					}
				}
			}
		}
		break
	}
	solver := bp.NewSolver()
	var cold, warm *lp.Solution
	rec.timed("lp.BatchSolver.Solve cold", -1, 0, func() { cold, err = solver.Solve(lp.Variant{ColUB: ub}, lp.Options{}) })
	if err != nil {
		return err
	}
	rec.timed("lp.BatchSolver.Solve warm", -1, 0, func() {
		warm, err = solver.Solve(lp.Variant{ColUB: ub}, lp.Options{StartBasis: base.Basis()})
	})
	if err != nil {
		return err
	}
	out["lp.cold_resolve_pivots"] = float64(cold.Iterations)
	out["lp.warm_resolve_pivots"] = float64(warm.Iterations)
	return nil
}

// scaleProbes times the ScenLoss precompute's batched form: compile once,
// then one bound-variant solve per scenario.
func scaleProbes(ctx context.Context, rec *recorder, inst *flexile.Instance, out map[string]float64) error {
	var sb *te.ScaleBatch
	var err error
	out["te.scalebatch_compile_ms"] = rec.timed("te.NewScaleBatch", -1, 0, func() { sb, err = te.NewScaleBatch(inst) })
	if err != nil {
		return err
	}
	solver := sb.NewSolver()
	out["te.scaleloss_ms"] = rec.timed("te.ScaleSolver.Solve (all scenarios)", -1, 0, func() {
		for _, scen := range inst.Scenarios {
			if _, _, err = solver.Solve(ctx, scen, lp.Options{}); err != nil {
				return
			}
		}
	})
	return err
}

// solveCounts copies one solve's (or one interval's) LP/MIP/pool counters
// into the layer metrics.
func solveCounts(m obs.SolveMetrics, out map[string]float64) {
	out["lp.solves"] = float64(m.LP.Solves)
	out["lp.pivots"] = float64(m.LP.Pivots)
	out["lp.phase1_pivots"] = float64(m.LP.Phase1Pivots)
	out["lp.degenerate_pivots"] = float64(m.LP.DegeneratePivots)
	out["lp.refactorizations"] = float64(m.LP.Refactorizations)
	out["lp.warm_starts"] = float64(m.LP.WarmStarts)
	out["lp.warm_start_rejected"] = float64(m.LP.WarmStartRejected)
	out["lp.solve_ms_sum"] = float64(m.LP.SolveNanos) / 1e6
	if m.LP.Pivots > 0 {
		out["lp.us_per_pivot"] = float64(m.LP.SolveNanos) / 1e3 / float64(m.LP.Pivots)
	}
	out["mip.solves"] = float64(m.MIP.Solves)
	out["mip.nodes"] = float64(m.MIP.Nodes)
	out["mip.heuristic_calls"] = float64(m.MIP.HeuristicCalls)
	out["mip.solve_ms_sum"] = float64(m.MIP.SolveNanos) / 1e6
}

// designLayers derives the per-layer numbers of a design workload: counts
// and busy times from the telemetry every Design call already returns
// (SolveReport.Metrics), taken from the operation whose wall-clock is the
// run's median, plus probes of the layers underneath.
func designLayers(ctx context.Context, cfg *runConfig, spec instanceSpec, inst *flexile.Instance, ops []designOp) (map[string]float64, error) {
	out := newLayerValues()
	var good []designOp
	var tracedMs, plainMs []float64
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		good = append(good, o)
		if o.traced {
			tracedMs = append(tracedMs, o.ms)
		} else {
			plainMs = append(plainMs, o.ms)
		}
	}
	if len(good) > 0 {
		sort.Slice(good, func(i, j int) bool { return good[i].ms < good[j].ms })
		mid := good[(len(good)-1)/2]
		m := mid.metrics
		out["flexile.offline_ms"] = mid.ms
		out["flexile.iterations"] = float64(m.Decomp.Iterations)
		out["flexile.scenario_solves"] = float64(m.Decomp.ScenarioSolves)
		out["flexile.master_solves"] = float64(m.Decomp.MasterSolves)
		out["flexile.cuts_generated"] = float64(m.Decomp.CutsGenerated)
		out["flexile.shared_cut_rows"] = float64(m.Decomp.SharedCutRows)
		out["flexile.scenario_solve_ms_sum"] = float64(m.Latency.ScenarioSolve.Sum) / 1e6
		out["flexile.penalty"] = mid.penalty
		solveCounts(m, out)
		out["par.pool_busy_ms"] = float64(m.Pool.BusyNanos) / 1e6
		if w := float64(m.Pool.MaxWorkers); w > 0 && mid.ms > 0 {
			perWorker := float64(m.Pool.BusyNanos) / 1e6 / w
			out["par.pool_idle_frac"] = 1 - perWorker/mid.ms
			// What is neither inside a parallel sweep nor inside the master
			// MIP: instance bookkeeping, cut handling, separation set-up.
			out["flexile.unattributed_frac"] = 1 - (perWorker+float64(m.MIP.SolveNanos)/1e6)/mid.ms
		}
	}
	if len(tracedMs) > 0 && len(plainMs) > 0 {
		out["obs.trace_overhead_frac"] = median(tracedMs)/median(plainMs) - 1
	}
	if len(plainMs) > 0 {
		var err error
		serial := cfg.rec.timed("flexile.Design Workers=1", -1, 0, func() {
			_, err = flexile.Design(inst, flexile.DesignOptions{Workers: 1})
		})
		if err != nil {
			return nil, err
		}
		out["flexile.par_speedup"] = serial / median(plainMs)
	}
	if err := constructionProbes(cfg.rec, spec, out); err != nil {
		return nil, err
	}
	if err := scaleProbes(ctx, cfg.rec, inst, out); err != nil {
		return nil, err
	}
	if err := lpProbes(cfg.rec, inst, out); err != nil {
		return nil, err
	}
	return out, nil
}

// admitProbes times the admission primitives every request passes through.
func admitProbes(rec *recorder, n int, out map[string]float64) {
	per := func(name string, fn func()) float64 {
		return rec.timed(name, -1, 0, func() {
			for i := 0; i < n; i++ {
				fn()
			}
		}) * 1e6 / float64(n)
	}
	quota := admit.NewQuota(admit.QuotaConfig{Rate: 1e12, Burst: 1e12})
	out["admit.quota_allow_ns"] = per("admit.Quota.Allow", func() { quota.Allow("tenant-0") })
	breaker := admit.NewBreaker(admit.BreakerConfig{Threshold: 5, Cooldown: 5 * time.Second})
	out["admit.breaker_allow_ns"] = per("admit.Breaker.Allow", func() { breaker.Allow() })
	out["admit.parse_deadline_ns"] = per("admit.ParseDeadline", func() { admit.ParseDeadline("250ms", 0) })
}
