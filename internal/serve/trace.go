package serve

import (
	"net/http"
	"time"

	"flexile/internal/obs"
)

// Request-scoped tracing (DESIGN.md §16). Every request gets an
// X-Request-Id; a sampled subset additionally gets an obs.ReqTrace carried
// on the request context through the admission/serve pipeline, where each
// stage records a span. Finished traces land in the Config.Ring behind
// GET /debug/requests and — when a chrome://tracing tracer is attached to
// the collector — on the -trace timeline next to the solver spans.
//
// Sampling: an incoming W3C traceparent with the sampled flag forces
// tracing (a caller who traced their half gets ours); otherwise
// Config.TraceEvery picks one request in every n. A nil Ring disables
// tracing entirely and the hot path takes no tracing branches beyond the
// always-on request id.

// beginRequest assigns and echoes the request id (generating one when the
// caller sent none), decides trace sampling, and — for sampled requests —
// returns a started trace (recording the path as the client sent it) plus
// the request rewrapped with the trace on its context and a traceparent
// response header announcing our span.
func (s *Server) beginRequest(w http.ResponseWriter, r *http.Request) (string, *obs.ReqTrace, *http.Request) {
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = nextRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	if s.cfg.Ring == nil {
		return rid, nil, r
	}
	tc, hasParent := obs.ParseTraceparent(r.Header.Get("traceparent"))
	sampled := hasParent && tc.Sampled
	if !sampled {
		n := s.cfg.TraceEvery
		if n == 0 {
			n = DefaultTraceEvery
		}
		sampled = n <= 1 || s.traceSeq.Add(1)%int64(n) == 0
	}
	if !sampled {
		return rid, nil, r
	}
	tr := obs.NewReqTrace(rid)
	if hasParent {
		tr.SetParent(tc)
	}
	tr.Method = r.Method
	tr.Path = r.URL.Path
	tr.Tenant = r.Header.Get("X-Tenant")
	w.Header().Set("traceparent", tr.Traceparent())
	return rid, tr, r.WithContext(obs.WithReqTrace(r.Context(), tr))
}

// lapper records the stage spans of one request. Laps share one continuous
// cursor, so the non-nested spans of a request tile its wall-clock — their
// durations sum to (approximately) the served latency, which is what makes
// a /debug/requests timeline trustworthy. Each lap also feeds the matching
// flexile_serve_stage_duration_seconds series, tracing sampled or not, so
// the aggregate histograms cover every request. Batch stage-2 groups run
// concurrently off their own nested lappers (tag distinguishes them); only
// the serial top-level lapper produces tiling spans.
type lapper struct {
	tr     *obs.ReqTrace
	col    *obs.Collector
	last   time.Time
	nested bool
	tag    string // appended to span names, "cache:<tag>"
}

// Lap closes the stage that began at the previous lap (or construction):
// one span on the trace, one observation into the stage histogram.
func (l *lapper) Lap(name string, id obs.LatencyID) { l.lapAt(name, id, time.Now()) }

// alloc closes the stages of one engine.allocate call: cache, and — for a
// query that went past it — flight (admission, breaker, single-flight wait).
func (l *lapper) alloc(res allocResult) {
	if res.missedAt.IsZero() {
		l.Lap("cache", obs.LatStageCache)
		return
	}
	l.lapAt("cache", obs.LatStageCache, res.missedAt)
	l.Lap("flight", obs.LatStageFlight)
}

func (l *lapper) lapAt(name string, id obs.LatencyID, now time.Time) {
	if l.tr != nil {
		if l.tag != "" {
			name = name + ":" + l.tag
		}
		l.tr.AddSpan(name, l.last, now, l.nested)
	}
	l.col.ObserveLatency(id, now.Sub(l.last))
	l.last = now
}
