package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"flexile/internal/admit"
	"flexile/internal/obs"
	"flexile/internal/obs/expo"
)

// routes builds the one mux (route table on Server). Every per-artifact
// route is registered bare and under /v1/artifacts/{name}/ with the same
// handler; addressed tells the two apart.
func (s *Server) routes() {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", s.handleHealth)
	m.HandleFunc("GET /readyz", s.handleReady)
	m.HandleFunc("GET /metrics", s.handleMetrics)
	m.HandleFunc("GET /v1/artifacts", s.handleArtifacts)
	for _, prefix := range []string{"/v1/", "/v1/artifacts/{name}/"} {
		m.HandleFunc("GET "+prefix+"info", s.onEngine(handleInfo))
		m.HandleFunc("GET "+prefix+"scenarios", s.onEngine(handleScenarios))
		m.HandleFunc("GET "+prefix+"alloc", s.onEngine(s.handleAlloc))
		m.HandleFunc("POST "+prefix+"alloc", s.onEngine(s.handleAlloc))
		m.HandleFunc("POST "+prefix+"alloc/batch", s.handleBatch)
	}
	s.mux = m
}

// addressed returns the artifact name a request carries: the {name} path
// segment, else the X-Flexile-Artifact header, else "" (the default rule).
func addressed(r *http.Request) string {
	if name := r.PathValue("name"); name != "" {
		return name
	}
	return r.Header.Get("X-Flexile-Artifact")
}

// onEngine adapts a per-artifact handler to the mux: it resolves the
// addressed artifact (404 when there is none) and notes its name for the
// access record.
func (s *Server) onEngine(h func(http.ResponseWriter, *http.Request, *engine)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		eng, err := s.resolve(addressed(r))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		if rec, ok := w.(*accessRecorder); ok {
			rec.artifact = eng.name
		}
		h(w, r, eng)
	}
}

// --- request ids and access logging ---

// reqIDPrefix makes request ids unique across processes; the per-process
// counter makes them unique within one.
var reqIDPrefix = func() string {
	b := make([]byte, 6)
	rand.Read(b)
	return hex.EncodeToString(b)
}()

var reqIDSeq atomic.Uint64

func nextRequestID() string {
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDSeq.Add(1), 10)
}

// accessRecorder captures the response status and size for the access log
// and the request trace; handlers that know more type-assert their
// ResponseWriter back to it and fill in the query-shaped fields.
type accessRecorder struct {
	http.ResponseWriter
	status   int
	bytes    int
	artifact string // resolved artifact name, "" on fleet routes
	scenario int    // matched scenario index, -1 when none
	cache    string // hit | miss | shared | stale | none
}

func (a *accessRecorder) WriteHeader(code int) {
	if a.status == 0 {
		a.status = code
	}
	a.ResponseWriter.WriteHeader(code)
}

func (a *accessRecorder) Write(b []byte) (int, error) {
	if a.status == 0 {
		a.status = http.StatusOK
	}
	n, err := a.ResponseWriter.Write(b)
	a.bytes += n
	return n, err
}

// ServeHTTP implements http.Handler: the one bracket every route runs
// inside. Every request gets an X-Request-Id (the caller's, else a
// generated one) echoed in the response, tracing or logging configured or
// not, so shed responses stay correlatable. Sampled requests additionally
// get a request trace (Config.Ring, DESIGN.md §16) and, with logging
// configured, one structured access record per LogEvery.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid, tr, r2 := s.beginRequest(w, r)
	lg := s.cfg.Log
	logged := lg != nil && (s.cfg.LogEvery <= 1 || s.logSeq.Add(1)%int64(s.cfg.LogEvery) == 0)
	if !logged && tr == nil {
		s.mux.ServeHTTP(w, r2)
		return
	}
	rec := &accessRecorder{ResponseWriter: w, scenario: -1, cache: "none"}
	start := time.Now()
	s.mux.ServeHTTP(rec, r2)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	if logged {
		attrs := []slog.Attr{
			slog.String("request_id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("artifact", rec.artifact),
			slog.Int("scenario", rec.scenario),
			slog.String("cache", rec.cache),
			slog.Int("status", rec.status),
			slog.Int("bytes", rec.bytes),
			slog.Duration("dur", time.Since(start)),
		}
		if tr != nil {
			attrs = append(attrs, slog.String("trace_id", tr.TraceID))
		}
		lg.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}
	if tr != nil {
		// The shed reason latches from the response header writeResult set.
		tr.Finish(rec.status, rec.bytes, rec.scenario, rec.cache, rec.Header().Get("X-Flexile-Shed"))
		s.cfg.Ring.Add(tr)
		if sink := s.col.TraceSink(); sink != nil { // a -trace timeline is attached
			sink.RecordRequest(tr.Snapshot())
		}
	}
}

// --- process-level routes ---

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleHealth is the liveness probe. A one-entry registry reports its
// artifact's identity at top level; a fleet reports a name→checksum map.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"ok": true, "version": ArtifactVersion}
	set := s.engines.Load()
	if len(set.sorted) == 1 {
		st := set.sorted[0].st.Load()
		resp["checksum"] = st.checksum
		resp["loaded_at"] = st.loadedAt.UTC().Format(time.RFC3339Nano)
	} else {
		arts := make(map[string]string, len(set.sorted))
		for _, eng := range set.sorted {
			arts[eng.name] = eng.st.Load().checksum
		}
		resp["artifacts"] = arts
	}
	writeJSON(w, http.StatusOK, resp)
}

// notReady is the one readiness rule: ready iff not draining and some
// loaded artifact is not mid-reload. One artifact is thus not ready while
// a hot reload decodes its replacement; a fleet reloads one name at a time,
// so a flapping artifact can't drain the whole process. The previous state
// keeps answering /v1/alloc throughout.
func (s *Server) notReady() (reason string) {
	if s.draining.Load() {
		return "draining"
	}
	set := s.engines.Load()
	for _, eng := range set.sorted {
		if !eng.reloading.Load() {
			return ""
		}
	}
	if len(set.sorted) == 0 {
		return "no artifact loaded"
	}
	return "artifact reload in progress"
}

// handleReady is the readiness probe: 503 with a JSON reason per notReady,
// so load balancers drain traffic without dropping in-flight queries.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if reason := s.notReady(); reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	engs := s.engines.Load().sorted
	resp := map[string]any{"ready": true, "artifacts": len(engs)}
	if len(engs) == 1 {
		resp = map[string]any{"ready": true, "checksum": engs[0].st.Load().checksum}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleArtifacts lists one status row per loaded artifact, sorted by name.
func (s *Server) handleArtifacts(w http.ResponseWriter, _ *http.Request) {
	engs := s.engines.Load().sorted
	rows := make([]ArtifactStatus, len(engs))
	for i, eng := range engs {
		rows[i] = eng.status()
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleMetrics renders the Prometheus exposition page: the root
// collector's epoch-consistent snapshot (every engine's counters roll up
// into it), live gauges, and Go runtime telemetry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", expo.ContentType)
	expo.WritePage(w, s.col, s.extraMetrics)
}

// MetricsHandler exposes the /metrics page as a standalone handler so an
// admin listener can mount it next to pprof without routing application
// traffic.
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }

// extraMetrics appends point-in-time gauges over live state to a metrics
// page — values outside the Collector because they are levels, not deltas.
// One artifact gets unlabelled gauges; a fleet per-artifact families
// labelled artifact=, next to the unlabelled fleet-aggregate counters.
func (s *Server) extraMetrics(e *expo.Encoder) {
	ready := 0.0
	if s.notReady() == "" {
		ready = 1
	}
	e.Gauge("flexile_serve_ready", "Whether /readyz currently reports ready.", ready)
	engs := s.engines.Load().sorted
	if len(engs) == 1 {
		soleGauges(e, engs[0])
		return
	}
	e.Gauge("flexile_registry_artifacts", "Artifacts currently loaded in the registry.", float64(len(engs)))
	if len(engs) > 0 {
		fleetGauges(e, engs)
	}
}

func soleGauges(e *expo.Encoder, eng *engine) {
	st := eng.st.Load()
	e.Gauge("flexile_serve_gate_in_use", "Recomputation-gate slots currently held.", float64(eng.gate.InUse()))
	e.Gauge("flexile_serve_gate_capacity", "Total recomputation-gate slots.", float64(eng.gate.Cap()))
	e.Gauge("flexile_serve_gate_waiters", "Recomputations currently queued for a gate slot.", float64(eng.gate.Waiters()))
	e.Gauge("flexile_serve_gate_estimated_wait_seconds", "Predicted queue wait for a new arrival (EWMA of hold times).", eng.gate.EstimatedWait().Seconds())
	e.Gauge("flexile_serve_quota_tenants", "Tenant token buckets currently tracked.", float64(eng.quota.Tenants()))
	e.GaugeVec("flexile_serve_breaker_state", "Circuit-breaker state (0 closed, 1 open, 2 half-open).",
		[]float64{float64(eng.compBreaker.State()), float64(eng.reloadBreaker.State())},
		[][]expo.Label{
			{{Name: "breaker", Value: "recompute"}},
			{{Name: "breaker", Value: "reload"}},
		})
	e.Gauge("flexile_serve_cache_entries", "Allocation-cache entries resident.", float64(st.cache.len()))
	e.Gauge("flexile_serve_flight_in_flight", "Distinct scenarios with a recomputation in flight.", float64(st.flight.InFlight()))
	e.Gauge("flexile_artifact_info", "Identity of the loaded serving artifact (value is always 1).", 1,
		expo.Label{Name: "version", Value: strconv.Itoa(ArtifactVersion)},
		expo.Label{Name: "checksum", Value: st.checksum},
		expo.Label{Name: "topology", Value: st.art.TopoName})
}

// labelled accumulates the samples of one fleet family.
type labelled struct {
	values []float64
	labels [][]expo.Label
}

func (l *labelled) add(v float64, labels ...expo.Label) {
	l.values = append(l.values, v)
	l.labels = append(l.labels, labels)
}

func fleetGauges(e *expo.Encoder, engs []*engine) {
	counters := [...]struct {
		name, help string
		get        func(obs.ServeMetrics) int64
		labelled
	}{
		{name: "requests", help: "Allocation queries per artifact (batch entries included).", get: func(m obs.ServeMetrics) int64 { return m.Requests }},
		{name: "cache_hits", help: "Allocation-cache hits per artifact.", get: func(m obs.ServeMetrics) int64 { return m.CacheHits }},
		{name: "cache_misses", help: "Allocation-cache misses per artifact.", get: func(m obs.ServeMetrics) int64 { return m.CacheMisses }},
		{name: "degraded", help: "Stale degraded answers per artifact.", get: func(m obs.ServeMetrics) int64 { return m.Degraded }},
		{name: "recompute_errors", help: "Failed Online recomputations per artifact.", get: func(m obs.ServeMetrics) int64 { return m.RecomputeErrors }},
		{name: "reload_errors", help: "Failed artifact (re)loads per artifact.", get: func(m obs.ServeMetrics) int64 { return m.ReloadErrors }},
	}
	var breakers, cached, info labelled
	for _, eng := range engs {
		st, sm := eng.st.Load(), eng.col.Snapshot().Serve
		art := expo.Label{Name: "artifact", Value: eng.name}
		for i := range counters {
			counters[i].add(float64(counters[i].get(sm)), art)
		}
		breakers.add(float64(eng.compBreaker.State()), art, expo.Label{Name: "breaker", Value: "recompute"})
		breakers.add(float64(eng.reloadBreaker.State()), art, expo.Label{Name: "breaker", Value: "reload"})
		cached.add(float64(st.cache.len()), art)
		info.add(1, art,
			expo.Label{Name: "version", Value: strconv.Itoa(ArtifactVersion)},
			expo.Label{Name: "checksum", Value: st.checksum},
			expo.Label{Name: "topology", Value: st.art.TopoName})
	}
	for _, c := range counters {
		e.CounterVec("flexile_serve_artifact_"+c.name+"_total", c.help, c.values, c.labels)
	}
	e.GaugeVec("flexile_serve_artifact_breaker_state", "Per-artifact circuit-breaker state (0 closed, 1 open, 2 half-open).", breakers.values, breakers.labels)
	e.GaugeVec("flexile_serve_artifact_cache_entries", "Allocation-cache entries resident per artifact.", cached.values, cached.labels)
	e.GaugeVec("flexile_artifact_info", "Identity of each loaded serving artifact (value is always 1).", info.values, info.labels)
}

// --- per-artifact routes ---

func handleInfo(w http.ResponseWriter, _ *http.Request, eng *engine) {
	st := eng.st.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"topology":  st.art.TopoName,
		"version":   ArtifactVersion,
		"checksum":  st.checksum,
		"loaded_at": st.loadedAt.UTC().Format(time.RFC3339Nano),
		"nodes":     st.art.NumNodes,
		"edges":     len(st.art.Edges),
		"classes":   len(st.art.Classes),
		"pairs":     len(st.art.Pairs),
		"scenarios": len(st.art.Scenarios),
		"gamma":     st.art.Gamma,
	})
}

func handleScenarios(w http.ResponseWriter, _ *http.Request, eng *engine) {
	st := eng.st.Load()
	type scen struct {
		Index  int     `json:"index"`
		Prob   float64 `json:"prob"`
		Failed []int   `json:"failed"`
	}
	out := make([]scen, len(st.art.Scenarios))
	for q, sc := range st.art.Scenarios {
		failed := sc.Failed
		if failed == nil {
			failed = []int{}
		}
		out[q] = scen{Index: q, Prob: sc.Prob, Failed: failed}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleAlloc answers one allocation query: run the pipeline, render the
// outcome, then account for it.
func (s *Server) handleAlloc(w http.ResponseWriter, r *http.Request, eng *engine) {
	start := time.Now()
	lap := &lapper{tr: obs.ReqTraceFrom(r.Context()), col: eng.col, last: start}
	res := s.query(r, eng, start, lap)
	writeResult(w, res)
	lap.Lap("write", obs.LatStageWrite)
	eng.col.AddServe(res.metrics())
	eng.col.ObserveLatency(obs.LatServeRequest, time.Since(start))
}

// query runs a single-route request through the staged pipeline, ordered
// so overload is refused as early and cheaply as possible (DESIGN.md §13):
// tenant quota (X-Tenant) → 429, deadline parse (X-Request-Deadline,
// -default-deadline) → 400, request parse → 400, then engine.allocate.
func (s *Server) query(r *http.Request, eng *engine, start time.Time, lap *lapper) allocResult {
	if refusal, ok := eng.admit(r.Header.Get("X-Tenant")); !ok {
		lap.Lap("admit", obs.LatStageAdmit)
		return refusal
	}
	deadline, err := admit.ParseDeadline(r.Header.Get("X-Request-Deadline"), s.cfg.DefaultDeadline)
	lap.Lap("admit", obs.LatStageAdmit)
	if err != nil {
		return badRequest(err)
	}
	req, err := readRequest(r)
	lap.Lap("parse", obs.LatStageParse)
	if err != nil {
		return badRequest(err)
	}
	waitCtx, cancel := waitContext(r, start, deadline)
	defer cancel()
	res := eng.allocate(waitCtx, req, deadline)
	lap.alloc(res)
	return res
}

// waitContext bounds how long a request that arrived at start waits on the
// engine: its own context, cut off at the deadline when it has one.
func waitContext(r *http.Request, start time.Time, deadline time.Duration) (context.Context, context.CancelFunc) {
	if deadline <= 0 {
		return r.Context(), func() {}
	}
	return context.WithDeadline(r.Context(), start.Add(deadline))
}

func badRequest(err error) allocResult {
	return allocResult{status: http.StatusBadRequest, scenario: -1, decided: stageParse, errMsg: err.Error()}
}

// writeResult renders an allocResult in the single-request wire format;
// batchEntry is its field-for-field analog for batch envelopes. A refusal
// at admission carries Retry-After (the backoff hint in whole seconds) and
// X-Flexile-Shed (the stage that refused: quota | deadline | breaker) so
// clients and the chaos harness can tell the paths apart; an answer from
// the last-known-good store is a 200 with the explicit X-Flexile-Degraded
// marker, so clients can tell a stale answer (possibly computed from a
// previous artifact) from a live one.
func writeResult(w http.ResponseWriter, res allocResult) {
	if rec, ok := w.(*accessRecorder); ok {
		if res.scenario >= 0 {
			rec.scenario = res.scenario
		}
		if res.cache != "" {
			rec.cache = res.cache
		}
	}
	h := w.Header()
	if res.status != http.StatusOK {
		if res.shed != "" {
			h.Set("Retry-After", strconv.Itoa(admit.RetryAfterSeconds(res.retry)))
			h.Set("X-Flexile-Shed", res.shed)
		}
		writeError(w, res.status, res.errMsg)
		return
	}
	h.Set("Content-Type", "application/json")
	cache := res.cache
	if cache == "shared" { // a joined flight is still a miss on the wire
		cache = "miss"
	}
	h.Set("X-Flexile-Cache", cache)
	if res.degraded {
		h.Set("X-Flexile-Degraded", "stale")
	}
	w.Write(res.body)
}
