// Package obs is the solver observability layer: a zero-dependency,
// low-overhead metrics and tracing substrate threaded through the whole
// solve stack (internal/lp, internal/mip, internal/par, the flexile
// decomposition, and the experiment harness).
//
// Design rules:
//
//   - Counters are accumulated locally inside each solver (plain ints in
//     single-goroutine state) and flushed ONCE per solve into a Collector
//     with atomic adds — never per pivot, never per node — so the overhead
//     is a handful of atomic operations amortized over an entire LP/MIP
//     solve (budget: ≤2% of BenchmarkOfflineParallel, see DESIGN.md §9).
//   - A Collector is race-safe: any number of pool workers flush into it
//     concurrently. Adds propagate up a parent chain, so a per-solve child
//     collector (the one whose snapshot lands in SolveReport.Metrics) and
//     a process-global collector (the one the CLIs' -metrics flag reads)
//     both see every event without double bookkeeping at the call sites.
//   - The deterministic portion of a snapshot — every counter that is a
//     pure function of the solve trajectory — is bit-identical across
//     worker counts, exactly like the solve results themselves (PR 1's
//     contract). Canonical() strips the scheduling-dependent remainder
//     (wall-clock timers, per-worker item distributions) so tests can
//     assert bit-identity with reflect.DeepEqual.
//
// Collectors travel through context.Context (With/From), which every solve
// entry point in the stack already threads; a nil *Collector is a valid
// no-op receiver, so call sites never branch.
package obs

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// LPMetrics aggregates simplex solve counters. All fields except SolveNanos
// are deterministic (identical for any worker count on the same problem
// sequence).
type LPMetrics struct {
	// Solves counts SolveCtx invocations (including failed ones).
	Solves int64 `json:"solves"`
	// Errors counts solves that returned an error (cancellation, validation,
	// unrecoverable singular basis).
	Errors int64 `json:"errors"`
	// Optimal/Infeasible/Unbounded/IterLimit split the successful solves by
	// final status.
	Optimal    int64 `json:"optimal"`
	Infeasible int64 `json:"infeasible"`
	Unbounded  int64 `json:"unbounded"`
	IterLimit  int64 `json:"iter_limit"`
	// Pivots is the total simplex iteration count (basis changes plus bound
	// flips), Phase1Pivots/Phase2Pivots its per-phase split.
	Pivots       int64 `json:"pivots"`
	Phase1Pivots int64 `json:"phase1_pivots"`
	Phase2Pivots int64 `json:"phase2_pivots"`
	// BoundFlips counts iterations that moved the entering variable to its
	// opposite bound without a basis change.
	BoundFlips int64 `json:"bound_flips"`
	// DegeneratePivots counts basis changes with step length ≤ tolerance.
	DegeneratePivots int64 `json:"degenerate_pivots"`
	// Refactorizations counts full basis-inverse rebuilds.
	Refactorizations int64 `json:"refactorizations"`
	// BlandActivations counts switches to Bland's anti-cycling rule (either
	// requested up front via Options.Bland or triggered by a stall).
	BlandActivations int64 `json:"bland_activations"`
	// SingularRestarts counts recoveries from a singular basis via the
	// logical-basis restart.
	SingularRestarts int64 `json:"singular_restarts"`
	// WarmStarts counts solves that successfully installed a caller-
	// supplied start basis; WarmStartRejected counts solves that were
	// handed one but fell back to a cold start because the basis was
	// incompatible (shape mismatch, wrong basic count, singular basic
	// set). Rejections are the warm-start cache-miss signal: a warm-
	// started pipeline expects WarmStartRejected ≈ 0.
	WarmStarts        int64 `json:"warm_starts"`
	WarmStartRejected int64 `json:"warm_start_rejected"`
	// PriceRefreshes counts full pricing passes: iterations that recomputed
	// every reduced cost from scratch instead of updating them from the
	// pivot row. PriceRefreshes ÷ Pivots is the layer's wasted-work ratio.
	PriceRefreshes int64 `json:"price_refreshes"`
	// SolveNanos is total wall-clock time inside SolveCtx. Scheduling-
	// dependent: zeroed by Canonical().
	SolveNanos int64 `json:"solve_ns"`
}

// MIPMetrics aggregates branch-and-bound counters. All fields except
// SolveNanos are deterministic.
type MIPMetrics struct {
	// Solves counts mip.SolveCtx invocations.
	Solves int64 `json:"solves"`
	// Nodes counts explored branch-and-bound nodes.
	Nodes int64 `json:"nodes"`
	// PrunedNodes counts nodes discarded by the incumbent bound without
	// branching (popped-and-pruned plus bound-dominated after the LP).
	PrunedNodes int64 `json:"pruned_nodes"`
	// IncumbentUpdates counts strict improvements of the best integer
	// solution (warm starts, heuristic completions and integral nodes).
	IncumbentUpdates int64 `json:"incumbent_updates"`
	// HeuristicCalls counts rounding-heuristic invocations.
	HeuristicCalls int64 `json:"heuristic_calls"`
	// SolveNanos is total wall-clock time inside SolveCtx. Zeroed by
	// Canonical().
	SolveNanos int64 `json:"solve_ns"`
}

// DecompMetrics aggregates Benders-decomposition counters from the flexile
// offline solve. All fields are deterministic.
type DecompMetrics struct {
	// Solves counts offline decompositions run.
	Solves int64 `json:"solves"`
	// Iterations is the total Benders iteration count.
	Iterations int64 `json:"iterations"`
	// ScenarioSolves counts successful scenario subproblem solves (the ones
	// whose cuts entered the pool).
	ScenarioSolves int64 `json:"scenario_solves"`
	// ScenarioRetries counts scenario solves that failed and recovered under
	// hardened settings (== len(SolveReport.Retried)).
	ScenarioRetries int64 `json:"scenario_retries"`
	// ScenarioSkips counts scenario solves that exhausted their attempts
	// (== len(SolveReport.Skipped)).
	ScenarioSkips int64 `json:"scenario_skips"`
	// ScenLossFallbacks counts ScenLoss precomputes that fell back to the
	// trivial bound.
	ScenLossFallbacks int64 `json:"scenloss_fallbacks"`
	// MasterSolves counts master MIP solve rounds (including re-solves after
	// shared-cut separation).
	MasterSolves int64 `json:"master_solves"`
	// MasterFailures counts master steps that failed and ended the
	// decomposition with the best incumbent.
	MasterFailures int64 `json:"master_failures"`
	// CutsGenerated counts Benders cuts extracted from scenario solves;
	// CutsDeduped of those were exact duplicates of a cut already pooled
	// (same native scenario, identical coefficients) and were dropped.
	CutsGenerated int64 `json:"cuts_generated"`
	CutsDeduped   int64 `json:"cuts_deduped"`
	// SharedCutRows counts g^q_{q'} rows materialized by the separation
	// rounds across all master solves.
	SharedCutRows int64 `json:"shared_cut_rows"`
}

// PoolMetrics aggregates internal/par worker-pool accounting. Launches and
// Items are deterministic; MaxWorkers, WorkerItems and BusyNanos depend on
// the configured worker count and the scheduler, and are zeroed by
// Canonical().
type PoolMetrics struct {
	// Launches counts pool invocations (par.Collect calls).
	Launches int64 `json:"launches"`
	// Items counts work items executed across all launches.
	Items int64 `json:"items"`
	// MaxWorkers is the widest pool launched.
	MaxWorkers int64 `json:"max_workers"`
	// WorkerItems[w] counts items executed by worker id w (pool utilization:
	// a balanced pool has near-equal entries).
	WorkerItems []int64 `json:"worker_items,omitempty"`
	// BusyNanos is the summed wall-clock time spent inside work items — the
	// numerator of pool utilization (BusyNanos / (elapsed × workers)).
	BusyNanos int64 `json:"busy_ns"`
}

// ServeMetrics aggregates the online allocation server's counters
// (internal/serve, the flexile-serve daemon). Every field is
// deterministic given the request/reload sequence except the
// overload-dependent ones — GateWaits, DeadlineShed, DeadlineExpired,
// FlightShared — which depend on scheduling and load; request latency
// lives in the Latency.ServeRequest histogram, not here.
type ServeMetrics struct {
	// Requests counts allocation queries accepted by the HTTP layer
	// (including ones that fail validation); BadRequests of those were
	// rejected (malformed JSON, unknown failure state, out-of-range ids).
	Requests    int64 `json:"requests"`
	BadRequests int64 `json:"bad_requests"`
	// CacheHits/CacheMisses split the valid queries by whether the
	// per-scenario allocation cache answered directly. With the cache
	// disabled (-cache-size 0) every valid query is a miss.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Recomputes counts Online solves actually executed; FlightShared
	// counts misses that coalesced onto another request's in-flight solve
	// (single-flight), so Recomputes + FlightShared == CacheMisses on an
	// error-free run.
	Recomputes   int64 `json:"recomputes"`
	FlightShared int64 `json:"flight_shared"`
	// Reloads counts artifact (re)load attempts — the initial load plus
	// every SIGHUP-triggered one; ReloadErrors counts the attempts that
	// failed and left the previous artifact serving, so successful swaps
	// are Reloads - ReloadErrors.
	Reloads      int64 `json:"reloads"`
	ReloadErrors int64 `json:"reload_errors"`
	// GateWaits counts recomputations that found the recompute gate
	// saturated and had to queue for a slot — the serving layer's
	// overload signal.
	GateWaits int64 `json:"gate_waits"`
	// QuotaRejects counts requests refused at admission because the
	// tenant's token bucket was empty (HTTP 429).
	QuotaRejects int64 `json:"quota_rejects"`
	// DeadlineShed counts requests refused on arrival because the
	// predicted queue wait already exceeded their deadline (HTTP 503
	// with Retry-After) — overload shed before any work was queued.
	DeadlineShed int64 `json:"deadline_shed"`
	// DeadlineExpired counts admitted requests whose deadline (or client
	// connection) expired before the shared recomputation finished; the
	// detached computation still ran to completion for later callers.
	DeadlineExpired int64 `json:"deadline_expired"`
	// RecomputeErrors counts Online recomputations that failed; each
	// feeds the recompute circuit breaker's consecutive-failure count.
	RecomputeErrors int64 `json:"recompute_errors"`
	// Degraded counts requests answered from the stale last-known-good
	// store (marked X-Flexile-Degraded) because the live recompute path
	// failed or the breaker was open.
	Degraded int64 `json:"degraded"`
	// BreakerTrips counts transitions of either circuit breaker
	// (recompute or reload) to the open state; BreakerRejects counts
	// requests short-circuited while the recompute breaker was open.
	BreakerTrips   int64 `json:"breaker_trips"`
	BreakerRejects int64 `json:"breaker_rejects"`
	// ReloadsSkipped counts reload attempts suppressed by the open
	// reload breaker — SIGHUP storms against a corrupt artifact stop
	// hammering the decoder after Threshold consecutive failures.
	ReloadsSkipped int64 `json:"reloads_skipped"`
	// BatchRequests counts POST /v1/alloc/batch HTTP requests;
	// BatchEntries counts the allocation queries they carried (each entry
	// is also counted in Requests and its disposition counters, so the
	// single-query and batch paths share one accounting). BatchDeduped
	// counts entries answered by copying another entry's result because
	// the batch repeated the same (artifact, failure-state) query.
	BatchRequests int64 `json:"batch_requests"`
	BatchEntries  int64 `json:"batch_entries"`
	BatchDeduped  int64 `json:"batch_deduped"`
}

// Add accumulates d into m. m is a plain (non-atomic) delta a caller builds
// up locally — one per batch request, say — before flushing it with a
// single Collector.AddServe.
func (m *ServeMetrics) Add(d ServeMetrics) {
	m.Requests += d.Requests
	m.BadRequests += d.BadRequests
	m.CacheHits += d.CacheHits
	m.CacheMisses += d.CacheMisses
	m.Recomputes += d.Recomputes
	m.FlightShared += d.FlightShared
	m.Reloads += d.Reloads
	m.ReloadErrors += d.ReloadErrors
	m.GateWaits += d.GateWaits
	m.QuotaRejects += d.QuotaRejects
	m.DeadlineShed += d.DeadlineShed
	m.DeadlineExpired += d.DeadlineExpired
	m.RecomputeErrors += d.RecomputeErrors
	m.Degraded += d.Degraded
	m.BreakerTrips += d.BreakerTrips
	m.BreakerRejects += d.BreakerRejects
	m.ReloadsSkipped += d.ReloadsSkipped
	m.BatchRequests += d.BatchRequests
	m.BatchEntries += d.BatchEntries
	m.BatchDeduped += d.BatchDeduped
}

// LatencyID names one of the collector's built-in latency histograms.
type LatencyID int

const (
	// LatLPSolve is the per-LP wall-clock solve time (every SolveCtx).
	LatLPSolve LatencyID = iota
	// LatScenarioSolve is the per-scenario Benders subproblem wall time
	// (attempts included), the distribution behind DecompMetrics totals.
	LatScenarioSolve
	// LatServeRequest is the allocation server's per-request handler time
	// (the p50/p99/p99.9 the serving layer is judged on).
	LatServeRequest
	// LatQueueWait is the time an admitted cache-miss recomputation spent
	// queued on the saturated recompute gate before acquiring a slot —
	// the distribution the deadline-aware admission estimate is judged
	// against.
	LatQueueWait
	// The LatStage* histograms are the per-stage request-trace families
	// (DESIGN.md §16): each tiling stage of the serve pipeline observes
	// its lap here, so /metrics exposes the same decomposition the
	// per-request spans show at /debug/requests, in aggregate.
	LatStageAdmit
	LatStageParse
	LatStageCache
	LatStageFlight
	LatStageWrite
	LatStageRecompute

	numLatencies
)

// LatencyMetrics is the snapshot of every built-in latency histogram. All
// of it is wall-clock and therefore scheduling-dependent: Canonical()
// strips it entirely.
type LatencyMetrics struct {
	LPSolve       HistSnapshot `json:"lp_solve"`
	ScenarioSolve HistSnapshot `json:"scenario_solve"`
	ServeRequest  HistSnapshot `json:"serve_request"`
	QueueWait     HistSnapshot `json:"queue_wait"`
	// Per-stage serve pipeline laps (DESIGN.md §16).
	StageAdmit     HistSnapshot `json:"stage_admit"`
	StageParse     HistSnapshot `json:"stage_parse"`
	StageCache     HistSnapshot `json:"stage_cache"`
	StageFlight    HistSnapshot `json:"stage_flight"`
	StageWrite     HistSnapshot `json:"stage_write"`
	StageRecompute HistSnapshot `json:"stage_recompute"`
}

// SolveMetrics is one solve's (or one process's) aggregated observability
// snapshot, attached to flexile's SolveReport and emitted as JSON by the
// CLIs' -metrics flag.
type SolveMetrics struct {
	LP      LPMetrics      `json:"lp"`
	MIP     MIPMetrics     `json:"mip"`
	Decomp  DecompMetrics  `json:"decomposition"`
	Pool    PoolMetrics    `json:"pool"`
	Serve   ServeMetrics   `json:"serve"`
	Latency LatencyMetrics `json:"latency"`
}

// Canonical returns the deterministic portion of the snapshot: wall-clock
// timers and scheduling-dependent pool fields are zeroed. Two runs of the
// same solve with different worker counts produce bit-identical Canonical
// metrics (asserted by TestMetricsDeterministicAcrossWorkers).
func (m SolveMetrics) Canonical() SolveMetrics {
	m.LP.SolveNanos = 0
	m.MIP.SolveNanos = 0
	m.Pool.MaxWorkers = 0
	m.Pool.WorkerItems = nil
	m.Pool.BusyNanos = 0
	m.Latency = LatencyMetrics{}
	return m
}

// JSON renders the snapshot as indented JSON.
func (m SolveMetrics) JSON() []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil { // a struct of ints cannot fail to marshal
		panic(err)
	}
	return b
}

// Collector accumulates SolveMetrics race-safely. Every Add* method also
// adds into the parent chain, so nested collectors (per-offline-solve
// children under a process-global root) each see their own totals without
// the call sites flushing twice. A nil *Collector is a no-op receiver.
type Collector struct {
	parent *Collector
	tracer *Tracer

	m SolveMetrics // int64 fields mutated with sync/atomic only

	// hists are the built-in latency histograms, indexed by LatencyID.
	// Observations propagate up the parent chain like counter adds.
	hists [numLatencies]Histogram

	poolMu      sync.Mutex
	workerItems []int64
}

// New returns an empty root collector.
func New() *Collector { return &Collector{} }

// NewChild returns a collector whose adds roll up into parent (and its
// ancestors). A nil parent yields a standalone collector. Trace spans
// resolve against the nearest ancestor with an attached tracer.
func NewChild(parent *Collector) *Collector { return &Collector{parent: parent} }

// ctxKey is the context key type for collectors.
type ctxKey struct{}

// global is the process-wide fallback collector installed by SetGlobal
// (the CLIs' -metrics/-trace plumbing).
var global atomic.Pointer[Collector]

// SetGlobal installs c as the process-global collector that From falls back
// to when the context carries none. Pass nil to clear.
func SetGlobal(c *Collector) { global.Store(c) }

// Global returns the process-global collector, or nil.
func Global() *Collector { return global.Load() }

// With returns a context carrying c.
func With(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// From returns the collector carried by ctx, falling back to the global
// collector; nil when neither exists. A nil ctx is allowed.
func From(ctx context.Context) *Collector {
	if ctx != nil {
		if c, ok := ctx.Value(ctxKey{}).(*Collector); ok {
			return c
		}
	}
	return Global()
}

// AddLP flushes one solver's LP counters.
func (c *Collector) AddLP(d LPMetrics) {
	for ; c != nil; c = c.parent {
		m := &c.m.LP
		atomic.AddInt64(&m.Solves, d.Solves)
		atomic.AddInt64(&m.Errors, d.Errors)
		atomic.AddInt64(&m.Optimal, d.Optimal)
		atomic.AddInt64(&m.Infeasible, d.Infeasible)
		atomic.AddInt64(&m.Unbounded, d.Unbounded)
		atomic.AddInt64(&m.IterLimit, d.IterLimit)
		atomic.AddInt64(&m.Pivots, d.Pivots)
		atomic.AddInt64(&m.Phase1Pivots, d.Phase1Pivots)
		atomic.AddInt64(&m.Phase2Pivots, d.Phase2Pivots)
		atomic.AddInt64(&m.BoundFlips, d.BoundFlips)
		atomic.AddInt64(&m.DegeneratePivots, d.DegeneratePivots)
		atomic.AddInt64(&m.Refactorizations, d.Refactorizations)
		atomic.AddInt64(&m.BlandActivations, d.BlandActivations)
		atomic.AddInt64(&m.SingularRestarts, d.SingularRestarts)
		atomic.AddInt64(&m.WarmStarts, d.WarmStarts)
		atomic.AddInt64(&m.WarmStartRejected, d.WarmStartRejected)
		atomic.AddInt64(&m.PriceRefreshes, d.PriceRefreshes)
		atomic.AddInt64(&m.SolveNanos, d.SolveNanos)
	}
}

// AddMIP flushes one branch-and-bound solve's counters.
func (c *Collector) AddMIP(d MIPMetrics) {
	for ; c != nil; c = c.parent {
		m := &c.m.MIP
		atomic.AddInt64(&m.Solves, d.Solves)
		atomic.AddInt64(&m.Nodes, d.Nodes)
		atomic.AddInt64(&m.PrunedNodes, d.PrunedNodes)
		atomic.AddInt64(&m.IncumbentUpdates, d.IncumbentUpdates)
		atomic.AddInt64(&m.HeuristicCalls, d.HeuristicCalls)
		atomic.AddInt64(&m.SolveNanos, d.SolveNanos)
	}
}

// AddDecomp flushes decomposition counters.
func (c *Collector) AddDecomp(d DecompMetrics) {
	for ; c != nil; c = c.parent {
		m := &c.m.Decomp
		atomic.AddInt64(&m.Solves, d.Solves)
		atomic.AddInt64(&m.Iterations, d.Iterations)
		atomic.AddInt64(&m.ScenarioSolves, d.ScenarioSolves)
		atomic.AddInt64(&m.ScenarioRetries, d.ScenarioRetries)
		atomic.AddInt64(&m.ScenarioSkips, d.ScenarioSkips)
		atomic.AddInt64(&m.ScenLossFallbacks, d.ScenLossFallbacks)
		atomic.AddInt64(&m.MasterSolves, d.MasterSolves)
		atomic.AddInt64(&m.MasterFailures, d.MasterFailures)
		atomic.AddInt64(&m.CutsGenerated, d.CutsGenerated)
		atomic.AddInt64(&m.CutsDeduped, d.CutsDeduped)
		atomic.AddInt64(&m.SharedCutRows, d.SharedCutRows)
	}
}

// AddServe flushes allocation-server counters.
func (c *Collector) AddServe(d ServeMetrics) {
	for ; c != nil; c = c.parent {
		m := &c.m.Serve
		atomic.AddInt64(&m.Requests, d.Requests)
		atomic.AddInt64(&m.BadRequests, d.BadRequests)
		atomic.AddInt64(&m.CacheHits, d.CacheHits)
		atomic.AddInt64(&m.CacheMisses, d.CacheMisses)
		atomic.AddInt64(&m.Recomputes, d.Recomputes)
		atomic.AddInt64(&m.FlightShared, d.FlightShared)
		atomic.AddInt64(&m.Reloads, d.Reloads)
		atomic.AddInt64(&m.ReloadErrors, d.ReloadErrors)
		atomic.AddInt64(&m.GateWaits, d.GateWaits)
		atomic.AddInt64(&m.QuotaRejects, d.QuotaRejects)
		atomic.AddInt64(&m.DeadlineShed, d.DeadlineShed)
		atomic.AddInt64(&m.DeadlineExpired, d.DeadlineExpired)
		atomic.AddInt64(&m.RecomputeErrors, d.RecomputeErrors)
		atomic.AddInt64(&m.Degraded, d.Degraded)
		atomic.AddInt64(&m.BreakerTrips, d.BreakerTrips)
		atomic.AddInt64(&m.BreakerRejects, d.BreakerRejects)
		atomic.AddInt64(&m.ReloadsSkipped, d.ReloadsSkipped)
		atomic.AddInt64(&m.BatchRequests, d.BatchRequests)
		atomic.AddInt64(&m.BatchEntries, d.BatchEntries)
		atomic.AddInt64(&m.BatchDeduped, d.BatchDeduped)
	}
}

// ObserveLatency records one duration into the latency histogram named by
// id, propagating up the parent chain like every other add. A nil receiver
// or out-of-range id is a no-op.
func (c *Collector) ObserveLatency(id LatencyID, d time.Duration) {
	if id < 0 || id >= numLatencies {
		return
	}
	for ; c != nil; c = c.parent {
		c.hists[id].Observe(d.Nanoseconds())
	}
}

// ObserveSince records time elapsed since start into the id'd histogram —
// the deferred form: `defer col.ObserveSince(obs.LatScenarioSolve,
// time.Now())` times the enclosing function.
func (c *Collector) ObserveSince(id LatencyID, start time.Time) {
	c.ObserveLatency(id, time.Since(start))
}

// PoolLaunch records one pool invocation of the given width.
func (c *Collector) PoolLaunch(workers int) {
	for ; c != nil; c = c.parent {
		atomic.AddInt64(&c.m.Pool.Launches, 1)
		w := int64(workers)
		for {
			cur := atomic.LoadInt64(&c.m.Pool.MaxWorkers)
			if cur >= w || atomic.CompareAndSwapInt64(&c.m.Pool.MaxWorkers, cur, w) {
				break
			}
		}
	}
}

// PoolItem records one executed work item: which worker ran it and how long
// it took.
func (c *Collector) PoolItem(worker int, nanos int64) {
	for ; c != nil; c = c.parent {
		atomic.AddInt64(&c.m.Pool.Items, 1)
		atomic.AddInt64(&c.m.Pool.BusyNanos, nanos)
		c.poolMu.Lock()
		for len(c.workerItems) <= worker {
			c.workerItems = append(c.workerItems, 0)
		}
		c.workerItems[worker]++
		c.poolMu.Unlock()
	}
}

// Snapshot returns the collector's current totals. Concurrent adds may land
// between field loads; each individual counter is still exact and
// monotonic, which is all the consumers need (the authoritative snapshot is
// taken after the solve's pool work has joined).
func (c *Collector) Snapshot() SolveMetrics {
	if c == nil {
		return SolveMetrics{}
	}
	var out SolveMetrics
	src, dst := &c.m.LP, &out.LP
	dst.Solves = atomic.LoadInt64(&src.Solves)
	dst.Errors = atomic.LoadInt64(&src.Errors)
	dst.Optimal = atomic.LoadInt64(&src.Optimal)
	dst.Infeasible = atomic.LoadInt64(&src.Infeasible)
	dst.Unbounded = atomic.LoadInt64(&src.Unbounded)
	dst.IterLimit = atomic.LoadInt64(&src.IterLimit)
	dst.Pivots = atomic.LoadInt64(&src.Pivots)
	dst.Phase1Pivots = atomic.LoadInt64(&src.Phase1Pivots)
	dst.Phase2Pivots = atomic.LoadInt64(&src.Phase2Pivots)
	dst.BoundFlips = atomic.LoadInt64(&src.BoundFlips)
	dst.DegeneratePivots = atomic.LoadInt64(&src.DegeneratePivots)
	dst.Refactorizations = atomic.LoadInt64(&src.Refactorizations)
	dst.BlandActivations = atomic.LoadInt64(&src.BlandActivations)
	dst.SingularRestarts = atomic.LoadInt64(&src.SingularRestarts)
	dst.WarmStarts = atomic.LoadInt64(&src.WarmStarts)
	dst.WarmStartRejected = atomic.LoadInt64(&src.WarmStartRejected)
	dst.PriceRefreshes = atomic.LoadInt64(&src.PriceRefreshes)
	dst.SolveNanos = atomic.LoadInt64(&src.SolveNanos)
	ms, md := &c.m.MIP, &out.MIP
	md.Solves = atomic.LoadInt64(&ms.Solves)
	md.Nodes = atomic.LoadInt64(&ms.Nodes)
	md.PrunedNodes = atomic.LoadInt64(&ms.PrunedNodes)
	md.IncumbentUpdates = atomic.LoadInt64(&ms.IncumbentUpdates)
	md.HeuristicCalls = atomic.LoadInt64(&ms.HeuristicCalls)
	md.SolveNanos = atomic.LoadInt64(&ms.SolveNanos)
	ds, dd := &c.m.Decomp, &out.Decomp
	dd.Solves = atomic.LoadInt64(&ds.Solves)
	dd.Iterations = atomic.LoadInt64(&ds.Iterations)
	dd.ScenarioSolves = atomic.LoadInt64(&ds.ScenarioSolves)
	dd.ScenarioRetries = atomic.LoadInt64(&ds.ScenarioRetries)
	dd.ScenarioSkips = atomic.LoadInt64(&ds.ScenarioSkips)
	dd.ScenLossFallbacks = atomic.LoadInt64(&ds.ScenLossFallbacks)
	dd.MasterSolves = atomic.LoadInt64(&ds.MasterSolves)
	dd.MasterFailures = atomic.LoadInt64(&ds.MasterFailures)
	dd.CutsGenerated = atomic.LoadInt64(&ds.CutsGenerated)
	dd.CutsDeduped = atomic.LoadInt64(&ds.CutsDeduped)
	dd.SharedCutRows = atomic.LoadInt64(&ds.SharedCutRows)
	ps, pd := &c.m.Pool, &out.Pool
	pd.Launches = atomic.LoadInt64(&ps.Launches)
	pd.Items = atomic.LoadInt64(&ps.Items)
	pd.MaxWorkers = atomic.LoadInt64(&ps.MaxWorkers)
	pd.BusyNanos = atomic.LoadInt64(&ps.BusyNanos)
	ss, sd := &c.m.Serve, &out.Serve
	sd.Requests = atomic.LoadInt64(&ss.Requests)
	sd.BadRequests = atomic.LoadInt64(&ss.BadRequests)
	sd.CacheHits = atomic.LoadInt64(&ss.CacheHits)
	sd.CacheMisses = atomic.LoadInt64(&ss.CacheMisses)
	sd.Recomputes = atomic.LoadInt64(&ss.Recomputes)
	sd.FlightShared = atomic.LoadInt64(&ss.FlightShared)
	sd.Reloads = atomic.LoadInt64(&ss.Reloads)
	sd.ReloadErrors = atomic.LoadInt64(&ss.ReloadErrors)
	sd.GateWaits = atomic.LoadInt64(&ss.GateWaits)
	sd.QuotaRejects = atomic.LoadInt64(&ss.QuotaRejects)
	sd.DeadlineShed = atomic.LoadInt64(&ss.DeadlineShed)
	sd.DeadlineExpired = atomic.LoadInt64(&ss.DeadlineExpired)
	sd.RecomputeErrors = atomic.LoadInt64(&ss.RecomputeErrors)
	sd.Degraded = atomic.LoadInt64(&ss.Degraded)
	sd.BreakerTrips = atomic.LoadInt64(&ss.BreakerTrips)
	sd.BreakerRejects = atomic.LoadInt64(&ss.BreakerRejects)
	sd.ReloadsSkipped = atomic.LoadInt64(&ss.ReloadsSkipped)
	sd.BatchRequests = atomic.LoadInt64(&ss.BatchRequests)
	sd.BatchEntries = atomic.LoadInt64(&ss.BatchEntries)
	sd.BatchDeduped = atomic.LoadInt64(&ss.BatchDeduped)
	out.Latency.LPSolve = c.hists[LatLPSolve].Snapshot()
	out.Latency.ScenarioSolve = c.hists[LatScenarioSolve].Snapshot()
	out.Latency.ServeRequest = c.hists[LatServeRequest].Snapshot()
	out.Latency.QueueWait = c.hists[LatQueueWait].Snapshot()
	out.Latency.StageAdmit = c.hists[LatStageAdmit].Snapshot()
	out.Latency.StageParse = c.hists[LatStageParse].Snapshot()
	out.Latency.StageCache = c.hists[LatStageCache].Snapshot()
	out.Latency.StageFlight = c.hists[LatStageFlight].Snapshot()
	out.Latency.StageWrite = c.hists[LatStageWrite].Snapshot()
	out.Latency.StageRecompute = c.hists[LatStageRecompute].Snapshot()
	c.poolMu.Lock()
	if len(c.workerItems) > 0 {
		pd.WorkerItems = append([]int64(nil), c.workerItems...)
	}
	c.poolMu.Unlock()
	return out
}
