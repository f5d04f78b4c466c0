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
	// Pivots is the total simplex iteration count (basis changes plus primal
	// bound flips), Phase1Pivots/Phase2Pivots/DualPivots its split between
	// the primal's two phases and the dual simplex warm starts enter.
	Pivots       int64 `json:"pivots"`
	Phase1Pivots int64 `json:"phase1_pivots"`
	Phase2Pivots int64 `json:"phase2_pivots"`
	DualPivots   int64 `json:"dual_pivots"`
	// BoundFlips counts primal iterations that moved the entering variable
	// to its opposite bound without a basis change, and variables a dual
	// ratio test flipped to their other bound.
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
	// HeuristicCalls counts rounding-heuristic invocations. Only the
	// direct IP (internal/scheme/ip) sets mip.Options.Heuristic, so it
	// counts that scheme's rounding alone.
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
	// MasterSolves counts master MIP solves: Augment's δ master, one per
	// master step. Offline's master is a descent and solves no MIP, so it
	// reads 0 there.
	MasterSolves int64 `json:"master_solves"`
	// MasterFailures counts master steps that failed and ended the
	// decomposition early (Augment's only).
	MasterFailures int64 `json:"master_failures"`
	// CutsGenerated counts Benders cuts extracted from scenario solves, one
	// per successful scenario solve; every one enters the pool.
	CutsGenerated int64 `json:"cuts_generated"`
	// SharedCutRows counted the shared cuts g^q_{q'} (eq. 22) a MIP master
	// materialized by separation. No production master separates them, so
	// it reads 0; it stays until the benchmark stops reading it.
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
// overload-dependent ones — GateWaits, DeadlineExpired, FlightShared —
// which depend on scheduling and load; request latency lives in the
// Latency.ServeRequest histogram, not here.
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
	// DeadlineExpired counts cache misses whose deadline (or client
	// connection) expired before the shared recomputation finished — every
	// deadline refusal (HTTP 503, X-Flexile-Shed: deadline); the detached
	// computation still ran to completion for later callers.
	DeadlineExpired int64 `json:"deadline_expired"`
	// RecomputeErrors counts Online recomputations that failed; each
	// answered its waiters with HTTP 500 and cached nothing.
	RecomputeErrors int64 `json:"recompute_errors"`
	// BatchRequests counts POST /v1/alloc/batch HTTP requests;
	// BatchEntries counts the allocation queries they carried (each entry
	// is also counted in Requests and its disposition counters, so the
	// single-query and batch paths share one accounting).
	BatchRequests int64 `json:"batch_requests"`
	BatchEntries  int64 `json:"batch_entries"`
}

// Add accumulates d into m. m is a plain (non-atomic) delta a caller builds
// up locally — one per batch request, say — before flushing it with a
// single Collector.AddServe.
func (m *ServeMetrics) Add(d ServeMetrics) {
	dst, src := m.Fields(), d.Fields()
	for i, r := range dst {
		*r.P += *src[i].P
	}
}

// LatencyID names one of the collector's built-in latency histograms: the
// index of its row in LatencyMetrics.Fields.
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
	// LatQueueWait is the time a cache-miss recomputation spent queued on
	// the saturated recompute gate before acquiring a slot — the wait that
	// single-flight per scenario bounds at |S| recomputations.
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
	for _, rows := range m.Groups() {
		for _, r := range rows {
			if r.Kind != Count {
				*r.P = 0
			}
		}
	}
	m.Pool.WorkerItems = nil
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
	tracer *Trace

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
// resolve against the nearest ancestor with an attached timeline.
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
	src := d.Fields()
	for ; c != nil; c = c.parent {
		dst := c.m.LP.Fields()
		flush(dst[:], src[:])
	}
}

// AddMIP flushes one branch-and-bound solve's counters.
func (c *Collector) AddMIP(d MIPMetrics) {
	src := d.Fields()
	for ; c != nil; c = c.parent {
		dst := c.m.MIP.Fields()
		flush(dst[:], src[:])
	}
}

// AddDecomp flushes decomposition counters.
func (c *Collector) AddDecomp(d DecompMetrics) {
	src := d.Fields()
	for ; c != nil; c = c.parent {
		dst := c.m.Decomp.Fields()
		flush(dst[:], src[:])
	}
}

// AddServe flushes allocation-server counters.
func (c *Collector) AddServe(d ServeMetrics) {
	src := d.Fields()
	for ; c != nil; c = c.parent {
		dst := c.m.Serve.Fields()
		flush(dst[:], src[:])
	}
}

// flush atomically adds each src row's value into the matching dst row.
func flush(dst, src []Field) {
	for i := range dst {
		atomic.AddInt64(dst[i].P, *src[i].P)
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
	dst, src := out.Groups(), c.m.Groups()
	for g := range dst {
		for i := range dst[g] {
			*dst[g][i].P = atomic.LoadInt64(src[g][i].P)
		}
	}
	lat := out.Latency.Fields()
	for i := range lat {
		*lat[i].P = c.hists[i].Snapshot()
	}
	c.poolMu.Lock()
	if len(c.workerItems) > 0 {
		out.Pool.WorkerItems = append([]int64(nil), c.workerItems...)
	}
	c.poolMu.Unlock()
	return out
}
