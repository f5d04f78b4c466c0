package obs

// The metrics schema. Each group's Fields method is the one list of its
// counters, walked by Add, the collector's atomic flush, Snapshot,
// Canonical and the exposition encoder (internal/obs/expo). The methods
// return concrete arrays, not slices, so a flush builds its rows on the
// stack and allocates nothing (TestFlushAllocatesNothing).

// Kind says how a counter behaves across runs and how /metrics renders it.
type Kind uint8

const (
	Count Kind = iota // a deterministic event count: a counter
	Nanos             // wall-clock nanoseconds: a counter in seconds, zeroed by Canonical
	Level             // a scheduling-dependent high-water mark: a gauge, zeroed by Canonical
)

// Field is one row of a group's schema: the counter it reads and how the
// exposition page renders it. Consecutive rows sharing a Name are one
// family whose samples Label tells apart; the family's first row carries
// its Help. A row with no Name is JSON-only.
type Field struct {
	P            *int64
	Name, Help   string
	Label, Value string
	Kind         Kind
}

// HistField is a latency histogram's row, with the same family rules.
type HistField struct {
	P            *HistSnapshot
	Name, Help   string
	Label, Value string
}

// Fields is the LP group's schema.
func (m *LPMetrics) Fields() [19]Field {
	return [...]Field{
		{P: &m.Solves, Name: "flexile_lp_solves_total", Help: "LP solves started (including failed ones)."},
		{P: &m.Errors, Name: "flexile_lp_errors_total", Help: "LP solves that returned an error."},
		{P: &m.Optimal, Name: "flexile_lp_outcomes_total", Label: "status", Value: "optimal", Help: "Successful LP solves by final simplex status."},
		{P: &m.Infeasible, Name: "flexile_lp_outcomes_total", Label: "status", Value: "infeasible"},
		{P: &m.Unbounded, Name: "flexile_lp_outcomes_total", Label: "status", Value: "unbounded"},
		{P: &m.IterLimit, Name: "flexile_lp_outcomes_total", Label: "status", Value: "iter_limit"},
		{P: &m.Pivots},
		{P: &m.Phase1Pivots, Name: "flexile_lp_pivots_total", Label: "phase", Value: "1", Help: "Simplex iterations by phase."},
		{P: &m.Phase2Pivots, Name: "flexile_lp_pivots_total", Label: "phase", Value: "2"},
		{P: &m.DualPivots, Name: "flexile_lp_dual_pivots_total", Help: "Dual simplex iterations (warm starts)."},
		{P: &m.BoundFlips, Name: "flexile_lp_bound_flips_total", Help: "Simplex bound-flip iterations."},
		{P: &m.DegeneratePivots, Name: "flexile_lp_degenerate_pivots_total", Help: "Basis changes with step length below tolerance."},
		{P: &m.Refactorizations, Name: "flexile_lp_refactorizations_total", Help: "Full basis-inverse rebuilds."},
		{P: &m.BlandActivations, Name: "flexile_lp_bland_activations_total", Help: "Switches to Bland's anti-cycling rule."},
		{P: &m.SingularRestarts, Name: "flexile_lp_singular_restarts_total", Help: "Recoveries from a singular basis."},
		{P: &m.WarmStarts, Name: "flexile_lp_warm_starts_total", Help: "Solves that installed a caller-supplied start basis."},
		{P: &m.WarmStartRejected, Name: "flexile_lp_warm_start_rejected_total", Help: "Solves whose start basis was rejected (warm-start cache misses)."},
		{P: &m.PriceRefreshes, Name: "flexile_lp_price_refreshes_total", Help: "Iterations that recomputed every reduced cost from scratch."},
		{P: &m.SolveNanos, Kind: Nanos},
	}
}

// Fields is the MIP group's schema.
func (m *MIPMetrics) Fields() [6]Field {
	return [...]Field{
		{P: &m.Solves, Name: "flexile_mip_solves_total", Help: "Branch-and-bound solves."},
		{P: &m.Nodes, Name: "flexile_mip_nodes_total", Help: "Explored branch-and-bound nodes."},
		{P: &m.PrunedNodes, Name: "flexile_mip_pruned_nodes_total", Help: "Nodes discarded by the incumbent bound."},
		{P: &m.IncumbentUpdates, Name: "flexile_mip_incumbent_updates_total", Help: "Strict incumbent improvements."},
		{P: &m.HeuristicCalls, Name: "flexile_mip_heuristic_calls_total", Help: "Rounding-heuristic invocations."},
		{P: &m.SolveNanos, Kind: Nanos},
	}
}

// Fields is the decomposition group's schema.
func (m *DecompMetrics) Fields() [10]Field {
	return [...]Field{
		{P: &m.Solves, Name: "flexile_decomp_solves_total", Help: "Offline Benders decompositions run."},
		{P: &m.Iterations, Name: "flexile_decomp_iterations_total", Help: "Benders iterations."},
		{P: &m.ScenarioSolves, Name: "flexile_decomp_scenario_solves_total", Help: "Successful scenario subproblem solves."},
		{P: &m.ScenarioRetries, Name: "flexile_decomp_scenario_retries_total", Help: "Scenario solves recovered under hardened settings."},
		{P: &m.ScenarioSkips, Name: "flexile_decomp_scenario_skips_total", Help: "Scenario solves that exhausted their attempts."},
		{P: &m.ScenLossFallbacks, Name: "flexile_decomp_scenloss_fallbacks_total", Help: "ScenLoss precomputes that fell back to the trivial bound."},
		{P: &m.MasterSolves, Name: "flexile_decomp_master_solves_total", Help: "Master MIP solve rounds."},
		{P: &m.MasterFailures, Name: "flexile_decomp_master_failures_total", Help: "Master steps that ended the decomposition early."},
		{P: &m.CutsGenerated, Name: "flexile_decomp_cuts_generated_total", Help: "Benders cuts extracted from scenario solves."},
		{P: &m.SharedCutRows, Name: "flexile_decomp_shared_cut_rows_total", Help: "Shared-cut rows materialized by separation rounds."},
	}
}

// Fields is the worker pool's schema; WorkerItems, a per-worker slice, is
// outside it.
func (m *PoolMetrics) Fields() [4]Field {
	return [...]Field{
		{P: &m.Launches, Name: "flexile_pool_launches_total", Help: "Worker-pool invocations."},
		{P: &m.Items, Name: "flexile_pool_items_total", Help: "Work items executed."},
		{P: &m.BusyNanos, Name: "flexile_pool_busy_seconds_total", Help: "Wall-clock seconds spent inside work items.", Kind: Nanos},
		{P: &m.MaxWorkers, Name: "flexile_pool_max_workers", Help: "Widest pool launched.", Kind: Level},
	}
}

// Fields is the serving layer's schema. Every name is
// flexile_serve_<json key>_total; the server renders the same rows per
// artifact as flexile_serve_artifact_<json key>_total.
func (m *ServeMetrics) Fields() [14]Field {
	return [...]Field{
		{P: &m.Requests, Name: "flexile_serve_requests_total", Help: "Allocation queries accepted by the HTTP layer."},
		{P: &m.BadRequests, Name: "flexile_serve_bad_requests_total", Help: "Allocation queries rejected as malformed or unmatched."},
		{P: &m.CacheHits, Name: "flexile_serve_cache_hits_total", Help: "Queries answered from the allocation cache."},
		{P: &m.CacheMisses, Name: "flexile_serve_cache_misses_total", Help: "Queries that missed the allocation cache."},
		{P: &m.Recomputes, Name: "flexile_serve_recomputes_total", Help: "Online solves executed for cache misses."},
		{P: &m.FlightShared, Name: "flexile_serve_flight_shared_total", Help: "Misses coalesced onto an in-flight solve."},
		{P: &m.Reloads, Name: "flexile_serve_reloads_total", Help: "Artifact load attempts, initial plus SIGHUP-triggered."},
		{P: &m.ReloadErrors, Name: "flexile_serve_reload_errors_total", Help: "Artifact loads that failed and kept the previous artifact."},
		{P: &m.GateWaits, Name: "flexile_serve_gate_waits_total", Help: "Recomputations that queued on a saturated gate."},
		{P: &m.QuotaRejects, Name: "flexile_serve_quota_rejects_total", Help: "Requests refused by the per-tenant token-bucket quota."},
		{P: &m.DeadlineExpired, Name: "flexile_serve_deadline_expired_total", Help: "Admitted requests whose deadline or connection expired before the recomputation finished."},
		{P: &m.RecomputeErrors, Name: "flexile_serve_recompute_errors_total", Help: "Online recomputations that failed."},
		{P: &m.BatchRequests, Name: "flexile_serve_batch_requests_total", Help: "POST /v1/alloc/batch HTTP requests."},
		{P: &m.BatchEntries, Name: "flexile_serve_batch_entries_total", Help: "Allocation queries carried inside batch requests."},
	}
}

// Fields is the latency schema, row i being LatencyID i; observations are
// nanoseconds, rendered in seconds.
func (m *LatencyMetrics) Fields() [numLatencies]HistField {
	const stages = "flexile_serve_stage_duration_seconds"
	return [...]HistField{
		LatLPSolve:        {P: &m.LPSolve, Name: "flexile_lp_solve_duration_seconds", Help: "Wall-clock time per LP solve."},
		LatScenarioSolve:  {P: &m.ScenarioSolve, Name: "flexile_scenario_solve_duration_seconds", Help: "Wall-clock time per Benders scenario subproblem solve."},
		LatServeRequest:   {P: &m.ServeRequest, Name: "flexile_serve_request_duration_seconds", Help: "Wall-clock time per allocation request."},
		LatQueueWait:      {P: &m.QueueWait, Name: "flexile_serve_queue_wait_seconds", Help: "Time admitted recomputations spent queued on the saturated gate."},
		LatStageAdmit:     {P: &m.StageAdmit, Name: stages, Label: "stage", Value: "admit", Help: "Wall-clock time per serve pipeline stage (request-trace laps)."},
		LatStageParse:     {P: &m.StageParse, Name: stages, Label: "stage", Value: "parse"},
		LatStageCache:     {P: &m.StageCache, Name: stages, Label: "stage", Value: "cache"},
		LatStageFlight:    {P: &m.StageFlight, Name: stages, Label: "stage", Value: "flight"},
		LatStageWrite:     {P: &m.StageWrite, Name: stages, Label: "stage", Value: "write"},
		LatStageRecompute: {P: &m.StageRecompute, Name: stages, Label: "stage", Value: "recompute"},
	}
}

// Groups returns every counter group's rows over m, in exposition order.
func (m *SolveMetrics) Groups() [5][]Field {
	lp, mip, dec, pool, srv := m.LP.Fields(), m.MIP.Fields(), m.Decomp.Fields(), m.Pool.Fields(), m.Serve.Fields()
	return [...][]Field{lp[:], mip[:], dec[:], pool[:], srv[:]}
}
