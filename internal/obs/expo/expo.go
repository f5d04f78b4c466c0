// Package expo renders the observability layer (internal/obs) in the
// Prometheus text exposition format, version 0.0.4 — a from-scratch,
// stdlib-only encoder for the subset the serving stack emits: counter,
// gauge and histogram families with HELP/TYPE header lines, label escaping,
// and cumulative `_bucket`/`_sum`/`_count` histogram rendering.
//
// The package also ships the inverse: Lint, a grammar-conformance checker
// for the same subset, used by the test battery and the `make scrape` CI
// target to prove every rendered page parses (metric-name charset, label
// escape sequences, monotone non-decreasing `le` buckets ending in +Inf,
// `_count` equal to the +Inf bucket).
//
// Everything renders from self-consistent snapshots (obs.Collector.Snapshot
// and obs.Histogram's epoch-consistent Snapshot), so a scrape racing a
// request hammer never observes a `_count`/`_sum` pair from two different
// instants.
package expo

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"flexile/internal/obs"
)

// ContentType is the HTTP Content-Type of a rendered exposition page.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample line.
type Label struct {
	Name, Value string
}

// Encoder streams one exposition page. Methods latch the first write or
// validation error; check Err once at the end. Families must be emitted
// one at a time (all samples of a name together), which every caller in
// this repo does by construction.
type Encoder struct {
	w    io.Writer
	err  error
	seen map[string]bool
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, seen: make(map[string]bool)}
}

// Err returns the first error encountered while encoding, if any.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) setErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Encoder) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	if _, err := fmt.Fprintf(e.w, format, args...); err != nil {
		e.err = err
	}
}

// validName reports whether name matches the metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeHelp escapes a HELP docstring: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, newline and double quote.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value: Go's shortest float form, with the
// Prometheus spellings of the non-finite values.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// header emits the HELP and TYPE lines for a family, once per page.
func (e *Encoder) header(name, help, typ string) bool {
	if e.err != nil {
		return false
	}
	if !validName(name) {
		e.setErr(fmt.Errorf("expo: invalid metric name %q", name))
		return false
	}
	if e.seen[name] {
		e.setErr(fmt.Errorf("expo: family %q emitted twice", name))
		return false
	}
	e.seen[name] = true
	if help != "" {
		e.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	e.printf("# TYPE %s %s\n", name, typ)
	return true
}

// sample emits one sample line name{labels} value.
func (e *Encoder) sample(name string, labels []Label, v float64) {
	if e.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if !validLabelName(l.Name) {
				e.setErr(fmt.Errorf("expo: invalid label name %q on %s", l.Name, name))
				return
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	e.printf("%s %s\n", b.String(), formatValue(v))
}

// Counter emits a single-sample counter family. By convention the name
// ends in _total.
func (e *Encoder) Counter(name, help string, v float64, labels ...Label) {
	if e.header(name, help, "counter") {
		e.sample(name, labels, v)
	}
}

// CounterVec emits one counter family with several labeled samples; values
// holds one entry per sample, labels one label set per sample.
func (e *Encoder) CounterVec(name, help string, values []float64, labels [][]Label) {
	if !e.header(name, help, "counter") {
		return
	}
	for i, v := range values {
		e.sample(name, labels[i], v)
	}
}

// Gauge emits a single-sample gauge family.
func (e *Encoder) Gauge(name, help string, v float64, labels ...Label) {
	if e.header(name, help, "gauge") {
		e.sample(name, labels, v)
	}
}

// GaugeVec emits one gauge family with several labeled samples; values
// holds one entry per sample, labels one label set per sample.
func (e *Encoder) GaugeVec(name, help string, values []float64, labels [][]Label) {
	if !e.header(name, help, "gauge") {
		return
	}
	for i, v := range values {
		e.sample(name, labels[i], v)
	}
}

// Histogram renders an obs.HistSnapshot as a Prometheus histogram family:
// cumulative _bucket samples over the full shared log-scale bucket scheme
// (scaled by scale — pass 1e-9 to render nanosecond observations in
// seconds), then _sum and _count. Every finite bound is emitted even when
// empty, so dashboards always see the complete scheme; the +Inf bucket
// always equals _count because the snapshot is epoch-consistent.
func (e *Encoder) Histogram(name, help string, s obs.HistSnapshot, scale float64, labels ...Label) {
	if !e.header(name, help, "histogram") {
		return
	}
	e.histSamples(name, s, scale, labels)
}

// HistogramVec emits one histogram family with several labeled series —
// the stage-duration family renders one full bucket scheme per stage
// label. snaps holds one snapshot per series, labels one label set per
// series (none of them may use the reserved "le" label).
func (e *Encoder) HistogramVec(name, help string, snaps []obs.HistSnapshot, scale float64, labels [][]Label) {
	if len(snaps) != len(labels) {
		e.setErr(fmt.Errorf("expo: %s: %d snapshots for %d label sets", name, len(snaps), len(labels)))
		return
	}
	if !e.header(name, help, "histogram") {
		return
	}
	for i, s := range snaps {
		e.histSamples(name, s, scale, labels[i])
	}
}

// histSamples renders one series' cumulative _bucket lines plus _sum and
// _count, under an already-emitted family header.
func (e *Encoder) histSamples(name string, s obs.HistSnapshot, scale float64, labels []Label) {
	bounds := obs.HistBounds()
	var cum uint64
	for i, b := range bounds {
		if i < len(s.Buckets) {
			cum += s.Buckets[i]
		}
		e.sample(name+"_bucket", append(labels, Label{"le", formatValue(float64(b) * scale)}), float64(cum))
	}
	if len(s.Buckets) == len(bounds)+1 {
		cum += s.Buckets[len(bounds)]
	}
	e.sample(name+"_bucket", append(labels, Label{"le", "+Inf"}), float64(cum))
	e.sample(name+"_sum", labels, float64(s.Sum)*scale)
	e.sample(name+"_count", labels, float64(s.Count))
}

// EncodeSolveMetrics renders the full obs.SolveMetrics tree — every
// counter the LP/MIP/decomposition/pool/serve layers aggregate, plus the
// three built-in latency histograms in seconds.
func EncodeSolveMetrics(e *Encoder, m obs.SolveMetrics) {
	// LP core.
	e.Counter("flexile_lp_solves_total", "LP solves started (including failed ones).", float64(m.LP.Solves))
	e.Counter("flexile_lp_errors_total", "LP solves that returned an error.", float64(m.LP.Errors))
	e.CounterVec("flexile_lp_outcomes_total", "Successful LP solves by final simplex status.",
		[]float64{float64(m.LP.Optimal), float64(m.LP.Infeasible), float64(m.LP.Unbounded), float64(m.LP.IterLimit)},
		[][]Label{
			{{"status", "optimal"}},
			{{"status", "infeasible"}},
			{{"status", "unbounded"}},
			{{"status", "iter_limit"}},
		})
	e.CounterVec("flexile_lp_pivots_total", "Simplex iterations by phase.",
		[]float64{float64(m.LP.Phase1Pivots), float64(m.LP.Phase2Pivots)},
		[][]Label{{{"phase", "1"}}, {{"phase", "2"}}})
	e.Counter("flexile_lp_bound_flips_total", "Simplex bound-flip iterations.", float64(m.LP.BoundFlips))
	e.Counter("flexile_lp_degenerate_pivots_total", "Basis changes with step length below tolerance.", float64(m.LP.DegeneratePivots))
	e.Counter("flexile_lp_refactorizations_total", "Full basis-inverse rebuilds.", float64(m.LP.Refactorizations))
	e.Counter("flexile_lp_bland_activations_total", "Switches to Bland's anti-cycling rule.", float64(m.LP.BlandActivations))
	e.Counter("flexile_lp_singular_restarts_total", "Recoveries from a singular basis.", float64(m.LP.SingularRestarts))
	e.Counter("flexile_lp_warm_starts_total", "Solves that installed a caller-supplied start basis.", float64(m.LP.WarmStarts))
	e.Counter("flexile_lp_warm_start_rejected_total", "Solves whose start basis was rejected (warm-start cache misses).", float64(m.LP.WarmStartRejected))
	e.Counter("flexile_lp_price_refreshes_total", "Iterations that recomputed every reduced cost from scratch.", float64(m.LP.PriceRefreshes))
	// MIP.
	e.Counter("flexile_mip_solves_total", "Branch-and-bound solves.", float64(m.MIP.Solves))
	e.Counter("flexile_mip_nodes_total", "Explored branch-and-bound nodes.", float64(m.MIP.Nodes))
	e.Counter("flexile_mip_pruned_nodes_total", "Nodes discarded by the incumbent bound.", float64(m.MIP.PrunedNodes))
	e.Counter("flexile_mip_incumbent_updates_total", "Strict incumbent improvements.", float64(m.MIP.IncumbentUpdates))
	e.Counter("flexile_mip_heuristic_calls_total", "Rounding-heuristic invocations.", float64(m.MIP.HeuristicCalls))
	// Decomposition.
	e.Counter("flexile_decomp_solves_total", "Offline Benders decompositions run.", float64(m.Decomp.Solves))
	e.Counter("flexile_decomp_iterations_total", "Benders iterations.", float64(m.Decomp.Iterations))
	e.Counter("flexile_decomp_scenario_solves_total", "Successful scenario subproblem solves.", float64(m.Decomp.ScenarioSolves))
	e.Counter("flexile_decomp_scenario_retries_total", "Scenario solves recovered under hardened settings.", float64(m.Decomp.ScenarioRetries))
	e.Counter("flexile_decomp_scenario_skips_total", "Scenario solves that exhausted their attempts.", float64(m.Decomp.ScenarioSkips))
	e.Counter("flexile_decomp_scenloss_fallbacks_total", "ScenLoss precomputes that fell back to the trivial bound.", float64(m.Decomp.ScenLossFallbacks))
	e.Counter("flexile_decomp_master_solves_total", "Master MIP solve rounds.", float64(m.Decomp.MasterSolves))
	e.Counter("flexile_decomp_master_failures_total", "Master steps that ended the decomposition early.", float64(m.Decomp.MasterFailures))
	e.Counter("flexile_decomp_cuts_generated_total", "Benders cuts extracted from scenario solves.", float64(m.Decomp.CutsGenerated))
	e.Counter("flexile_decomp_cuts_deduped_total", "Cuts dropped as exact duplicates.", float64(m.Decomp.CutsDeduped))
	e.Counter("flexile_decomp_shared_cut_rows_total", "Shared-cut rows materialized by separation rounds.", float64(m.Decomp.SharedCutRows))
	// Worker pool.
	e.Counter("flexile_pool_launches_total", "Worker-pool invocations.", float64(m.Pool.Launches))
	e.Counter("flexile_pool_items_total", "Work items executed.", float64(m.Pool.Items))
	e.Counter("flexile_pool_busy_seconds_total", "Wall-clock seconds spent inside work items.", float64(m.Pool.BusyNanos)*1e-9)
	e.Gauge("flexile_pool_max_workers", "Widest pool launched.", float64(m.Pool.MaxWorkers))
	// Serving layer.
	e.Counter("flexile_serve_requests_total", "Allocation queries accepted by the HTTP layer.", float64(m.Serve.Requests))
	e.Counter("flexile_serve_bad_requests_total", "Allocation queries rejected as malformed or unmatched.", float64(m.Serve.BadRequests))
	e.Counter("flexile_serve_cache_hits_total", "Queries answered from the allocation cache.", float64(m.Serve.CacheHits))
	e.Counter("flexile_serve_cache_misses_total", "Queries that missed the allocation cache.", float64(m.Serve.CacheMisses))
	e.Counter("flexile_serve_recomputes_total", "Online solves executed for cache misses.", float64(m.Serve.Recomputes))
	e.Counter("flexile_serve_flight_shared_total", "Misses coalesced onto an in-flight solve.", float64(m.Serve.FlightShared))
	e.Counter("flexile_serve_reloads_total", "Artifact load attempts, initial plus SIGHUP-triggered.", float64(m.Serve.Reloads))
	e.Counter("flexile_serve_reload_errors_total", "Artifact loads that failed and kept the previous artifact.", float64(m.Serve.ReloadErrors))
	e.Counter("flexile_serve_gate_waits_total", "Recomputations that queued on a saturated gate.", float64(m.Serve.GateWaits))
	// Overload resilience (DESIGN.md §13): quotas, the deadline cut-off,
	// the recompute breaker, degraded serving.
	e.Counter("flexile_serve_quota_rejects_total", "Requests refused by the per-tenant token-bucket quota.", float64(m.Serve.QuotaRejects))
	e.Counter("flexile_serve_deadline_expired_total", "Admitted requests whose deadline or connection expired before the recomputation finished.", float64(m.Serve.DeadlineExpired))
	e.Counter("flexile_serve_recompute_errors_total", "Online recomputations that failed.", float64(m.Serve.RecomputeErrors))
	e.Counter("flexile_serve_degraded_total", "Requests answered from the stale last-known-good store.", float64(m.Serve.Degraded))
	e.Counter("flexile_serve_breaker_trips_total", "Recompute circuit-breaker transitions to the open state.", float64(m.Serve.BreakerTrips))
	e.Counter("flexile_serve_breaker_rejects_total", "Requests short-circuited while the recompute breaker was open.", float64(m.Serve.BreakerRejects))
	// Batch allocation API (DESIGN.md §14): one HTTP request carries many
	// queries; entries share the single-query disposition counters above.
	e.Counter("flexile_serve_batch_requests_total", "POST /v1/alloc/batch HTTP requests.", float64(m.Serve.BatchRequests))
	e.Counter("flexile_serve_batch_entries_total", "Allocation queries carried inside batch requests.", float64(m.Serve.BatchEntries))
	e.Counter("flexile_serve_batch_deduped_total", "Batch entries answered by copying a duplicate entry's result.", float64(m.Serve.BatchDeduped))
	// Latency distributions (nanosecond observations rendered in seconds).
	e.Histogram("flexile_lp_solve_duration_seconds", "Wall-clock time per LP solve.", m.Latency.LPSolve, 1e-9)
	e.Histogram("flexile_scenario_solve_duration_seconds", "Wall-clock time per Benders scenario subproblem solve.", m.Latency.ScenarioSolve, 1e-9)
	e.Histogram("flexile_serve_request_duration_seconds", "Wall-clock time per allocation request.", m.Latency.ServeRequest, 1e-9)
	e.Histogram("flexile_serve_queue_wait_seconds", "Time admitted recomputations spent queued on the saturated gate.", m.Latency.QueueWait, 1e-9)
	// Per-stage request-trace laps (DESIGN.md §16): the same decomposition
	// /debug/requests shows per request, in aggregate, one series per stage.
	e.HistogramVec("flexile_serve_stage_duration_seconds",
		"Wall-clock time per serve pipeline stage (request-trace laps).",
		[]obs.HistSnapshot{
			m.Latency.StageAdmit,
			m.Latency.StageParse,
			m.Latency.StageCache,
			m.Latency.StageFlight,
			m.Latency.StageWrite,
			m.Latency.StageRecompute,
		}, 1e-9,
		[][]Label{
			{{"stage", "admit"}},
			{{"stage", "parse"}},
			{{"stage", "cache"}},
			{{"stage", "flight"}},
			{{"stage", "write"}},
			{{"stage", "recompute"}},
		})
}

// WritePage renders a complete exposition page: the collector's snapshot,
// any extra families the caller appends (gauges over live server state),
// and the Go runtime metrics. A nil collector renders zero solve counters.
func WritePage(w io.Writer, col *obs.Collector, extra func(*Encoder)) error {
	e := NewEncoder(w)
	EncodeSolveMetrics(e, col.Snapshot())
	if extra != nil {
		extra(e)
	}
	EncodeRuntime(e)
	return e.Err()
}
