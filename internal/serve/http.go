package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"flexile/internal/admit"
	"flexile/internal/obs"
	"flexile/internal/obs/expo"
)

// routes builds the one mux (route table on Server). Every per-artifact
// route is registered once, bare; addressed names its artifact.
func (s *Server) routes() {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", s.handleHealth)
	m.HandleFunc("GET /readyz", s.handleReady)
	m.HandleFunc("GET /metrics", s.handleMetrics)
	m.HandleFunc("GET /v1/artifacts", s.handleArtifacts)
	m.HandleFunc("GET /v1/info", s.onEngine(handleInfo))
	m.HandleFunc("GET /v1/scenarios", s.onEngine(handleScenarios))
	m.HandleFunc("GET /v1/alloc", s.onEngine(s.handleAlloc))
	m.HandleFunc("POST /v1/alloc/batch", s.handleBatch)
	s.mux = m
}

// addressed returns the artifact name a request carries in its
// X-Flexile-Artifact header; "" resolves to the sole loaded artifact.
func addressed(r *http.Request) string { return r.Header.Get("X-Flexile-Artifact") }

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
	cache    string // hit | miss | shared | none
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

// handleHealth is the liveness probe: the artifact format version and a
// name→checksum map of the loaded artifacts, however many there are.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	engs := s.engines.Load().sorted
	arts := make(map[string]string, len(engs))
	for _, eng := range engs {
		arts[eng.name] = eng.st.Load().checksum
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "version": ArtifactVersion, "artifacts": arts})
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
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "artifacts": len(s.engines.Load().sorted)})
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
// page — values outside the Collector because they are levels, not deltas
// — and each artifact's own serve counters. Every per-artifact series is
// labelled artifact=, so one artifact and many render the same families;
// the unlabelled flexile_serve_*_total families are the fleet aggregate.
func (s *Server) extraMetrics(e *expo.Encoder) {
	ready := 0.0
	if s.notReady() == "" {
		ready = 1
	}
	e.Gauge("flexile_serve_ready", "Whether /readyz currently reports ready.", ready)
	engs := s.engines.Load().sorted
	e.Gauge("flexile_registry_artifacts", "Artifacts currently loaded in the registry.", float64(len(engs)))
	sts, snaps := make([]*state, len(engs)), make([]obs.ServeMetrics, len(engs))
	var arts, info [][]expo.Label
	for i, eng := range engs {
		sts[i], snaps[i] = eng.st.Load(), eng.col.Snapshot().Serve
		art := expo.Label{Name: "artifact", Value: eng.name}
		arts = append(arts, []expo.Label{art})
		info = append(info, []expo.Label{art,
			{Name: "version", Value: strconv.Itoa(ArtifactVersion)},
			{Name: "checksum", Value: sts[i].checksum},
			{Name: "topology", Value: sts[i].art.TopoName}})
	}
	each := func(get func(i int) int64) []float64 {
		v := make([]float64, len(engs))
		for i := range v {
			v[i] = float64(get(i))
		}
		return v
	}
	for _, g := range []struct {
		name, help string
		labels     [][]expo.Label
		get        func(*engine, *state) int
	}{
		{"flexile_serve_gate_in_use", "Recomputation-gate slots currently held.", arts, func(e *engine, _ *state) int { return e.gate.InUse() }},
		{"flexile_serve_gate_capacity", "Total recomputation-gate slots.", arts, func(e *engine, _ *state) int { return e.gate.Cap() }},
		{"flexile_serve_gate_waiters", "Recomputations currently queued for a gate slot.", arts, func(e *engine, _ *state) int { return e.gate.Waiters() }},
		{"flexile_serve_quota_tenants", "Tenant token buckets currently tracked.", arts, func(e *engine, _ *state) int { return e.quota.Tenants() }},
		{"flexile_serve_cache_entries", "Allocation-cache entries resident.", arts, func(_ *engine, st *state) int { return st.cache.len() }},
		{"flexile_serve_flight_in_flight", "Distinct scenarios with a recomputation in flight.", arts, func(_ *engine, st *state) int { return st.flight.InFlight() }},
		{"flexile_artifact_info", "Identity of each loaded serving artifact (value is always 1).", info, func(*engine, *state) int { return 1 }},
	} {
		e.GaugeVec(g.name, g.help, each(func(i int) int64 { return int64(g.get(engs[i], sts[i])) }), g.labels)
	}
	// Each artifact's serve counters: one family per ServeMetrics row.
	var zero obs.ServeMetrics
	for k, r := range zero.Fields() {
		e.CounterVec("flexile_serve_artifact_"+strings.TrimPrefix(r.Name, "flexile_serve_"), r.Help,
			each(func(i int) int64 { return *snaps[i].Fields()[k].P }), arts)
	}
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
	lap := &lapper{tr: obs.TraceFrom(r.Context()), col: eng.col, last: start}
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
	req, err := ParseQuery(r.URL.Query().Get("failed"))
	lap.Lap("parse", obs.LatStageParse)
	if err != nil {
		return badRequest(err)
	}
	waitCtx, cancel := waitContext(r, start, deadline)
	defer cancel()
	res := eng.allocate(waitCtx, req)
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
// X-Flexile-Shed (the stage that refused: quota | deadline) so clients and
// the chaos harness can tell the paths apart.
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
	h.Set("X-Flexile-Cache", res.wireCache())
	w.Write(res.body)
}
